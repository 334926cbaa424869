import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag.evaluation import (audit_lexicon_exhaustiveness, chi_squared,
                                 confusion_pairs, evaluate)

cells = st.integers(1, 500)


class TestEvaluate:
    def test_all_correct(self):
        corpus = make_corpus(["а/X", "б/Y"])
        rep = evaluate(corpus, [["X", "Y"]])
        assert rep.token_accuracy == 1.0
        assert rep.sentence_accuracy == 1.0
        assert rep.confusion_pairs == []

    def test_hand_computed(self):
        corpus = make_corpus(["а/X", "б/Y"], ["в/Z"])
        rep = evaluate(corpus, [["X", "Q"], ["Z"]],
                       training_vocabulary={"а", "б"})
        assert rep.token_accuracy == pytest.approx(2 / 3)
        assert rep.sentence_accuracy == pytest.approx(1 / 2)
        assert rep.unknown_token_count == 1
        assert rep.unknown_token_accuracy == 1.0
        assert rep.confusion_pairs == [("Y", "Q", 1)]

    def test_projection_never_below_full(self):
        corpus = make_corpus(["а/Ncmsf", "б/Vx", "в/Ncfsi"])
        rep = evaluate(corpus, [["Ncmsi", "Vx", "Ansi"]], depths=(1, 2))
        assert rep.token_accuracy == pytest.approx(1 / 3)
        assert rep.projected_accuracy[1] == pytest.approx(2 / 3)
        assert rep.projected_accuracy[2] == pytest.approx(2 / 3)
        assert (rep.projected_accuracy[1] >= rep.projected_accuracy[2]
                >= rep.token_accuracy)

    def test_to_dict_pinned(self):
        """Keys, order, values and repr of `to_dict`, which perfbench's
        round digest hashes."""
        corpus = make_corpus(["а/Ncmsf", "б/Vx", "в/Ncfsi"], ["г/Ansi"])
        rep = evaluate(corpus, [["Ncmsi", "Vx", "Ncmsi"], ["Ncfsi"]],
                       training_vocabulary={"а", "б"}, depths=(1, 2, 3))
        assert repr(rep.to_dict()) == (
            "{'token_accuracy': 0.25, 'sentence_accuracy': 0.0, "
            "'unknown_token_accuracy': 0.0, 'token_count': 4, 'unknown_token_count': 2, "
            "'confusion_pairs': [('Ansi', 'Ncfsi', 1), ('Ncfsi', 'Ncmsi', 1), "
            "('Ncmsf', 'Ncmsi', 1)], 'projected_accuracy': {1: 0.75, 2: 0.75, 3: 0.5}}")

    def test_length_mismatch(self):
        corpus = make_corpus(["а/X"])
        with pytest.raises(ValueError):
            evaluate(corpus, [])
        with pytest.raises(ValueError):
            evaluate(corpus, [["X", "Y"]])

    def test_untagged_gold_token_rejected(self):
        with pytest.raises(ValueError, match="token 'б' has no gold tag"):
            evaluate(make_corpus(["а/X", "б"]), [["X", "Y"]])


class TestConfusionPairs:
    def test_ordering(self):
        corpus = make_corpus(["а/Ansi", "б/Ansi", "в/Dm", "г/Ansi"])
        pairs = confusion_pairs(corpus, [["Dm", "Dm", "Ansi", "Vx"]])
        assert pairs == [("Ansi", "Dm", 2), ("Ansi", "Vx", 1),
                         ("Dm", "Ansi", 1)]

    def test_top_k(self):
        corpus = make_corpus(["а/A", "б/B", "в/C"])
        assert len(confusion_pairs(corpus, [["x", "y", "z"]], k=2)) == 2


class TestChiSquared:
    def test_known_value(self):
        stat, p = chi_squared(10, 20, 30, 40)
        assert stat == pytest.approx(0.7937, abs=1e-3)
        assert p == pytest.approx(0.3731, abs=1e-3)

    def test_proportional_rows_independent(self):
        stat, p = chi_squared(10, 20, 30, 60)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_extreme_association(self):
        stat, p = chi_squared(50, 0, 0, 50)
        assert stat == pytest.approx(100.0)
        assert p < 1e-20

    @given(cells, cells, cells, cells)
    def test_transposition_invariance(self, a, b, c, d):
        assert chi_squared(a, b, c, d) == pytest.approx(chi_squared(a, c, b, d))

    @given(cells, cells, cells, cells)
    def test_stat_nonnegative_p_in_unit(self, a, b, c, d):
        stat, p = chi_squared(a, b, c, d)
        assert stat >= 0.0 and 0.0 <= p <= 1.0

    def test_degenerate_tables_rejected(self):
        with pytest.raises(ValueError):
            chi_squared(0, 0, 0, 0)
        with pytest.raises(ValueError):
            chi_squared(0, 0, 5, 5)
        with pytest.raises(ValueError):
            chi_squared(-1, 1, 1, 1)


class TestExhaustivenessAudit:
    def test_clean(self):
        lex = make_lexicon({"а": ["X", "Y"]})
        assert audit_lexicon_exhaustiveness(make_corpus(["а/X"]), lex) == []

    def test_violations(self):
        lex = make_lexicon({"а": ["X"]})
        corpus = make_corpus(["а/Y", "б/Z"])
        assert audit_lexicon_exhaustiveness(corpus, lex) == [("а", "Y"),
                                                             ("б", "Z")]
