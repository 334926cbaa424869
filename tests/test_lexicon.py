import gc

import pytest

from conftest import make_corpus, make_lexicon
from morphtag.baselines import build_mft
from morphtag.errors import ConfigError, DataError, FormatError
from morphtag.lexicon import ambiguity_stats, dump_lexicon, lexicon_sets, load_lexicon
from morphtag.rules import audit_precision, parse_rules
from morphtag.synthetic import SyntheticConfig, generate_lemma_lexicon, generate_synthetic


class TestLoad:
    def test_basic(self):
        lex = load_lexicon("да\tTa\nда\tTx\nкнига\tNcfsi\tкнига\n")
        assert lex.tags("да") == {"Ta", "Tx"}
        assert lex.lemma("книга", "Ncfsi") == "книга"
        assert lex.lemma("да", "Ta") is None

    def test_missing_surface_unknown(self):
        lex = load_lexicon("a\tX\n")
        assert lex.lookup("b") is None
        assert lex.tags("b") is None

    def test_repeated_reading_merges(self):
        lex = load_lexicon("a\tX\na\tX\tl\na\tX\n")
        assert lex.lemma("a", "X") == "l"

    def test_conflicting_lemma(self):
        with pytest.raises(DataError):
            load_lexicon("a\tX\tl1\na\tX\tl2\n")

    def test_bad_field_count(self):
        with pytest.raises(FormatError):
            load_lexicon("a\tX\tl\textra\n")

    def test_blank_lines_skipped(self):
        assert len(load_lexicon("\na\tX\n\n")) == 1

    @pytest.mark.parametrize("text, line, message", [
        ("a b\tX\n", 1, "whitespace in surface 'a b'"),
        ("a\tX\na\tX\rb\n", 2, "whitespace in tag 'X\\rb'"),
        ("a\tX\nb\tX\nc\tX\u00a0\n", 3, "whitespace in tag 'X\\xa0'"),
        (" a\tX\n", 1, "whitespace in surface ' a'"),
    ])
    def test_whitespace_inside_field_rejected(self, text, line, message):
        """Whitespace by the rule of the corpus reader, inside a surface or
        a tag, is a format error naming the file and the line."""
        with pytest.raises(FormatError) as exc:
            load_lexicon(text, "lex.tsv")
        assert str(exc.value) == f"lex.tsv:{line}: {message}"

    def test_whitespace_in_lemma_kept(self):
        lex = load_lexicon("a\tX\tl m\n")
        assert lex.lemma("a", "X") == "l m"

    def test_roundtrip(self):
        text = "a\tX\na\tY\tla\nb\tZ\n"
        assert dump_lexicon(load_lexicon(text)) == text

    def test_tag_set_held_once(self):
        loaded = load_lexicon("a\tX\nb\tY\na\tZ\tl\n")
        for lex in (loaded, generate_lemma_lexicon(3, 2, 2, seed=1)):
            for surface, readings in lex.items():
                tags = lex.tags(surface)
                assert tags == set(readings)
                assert lex.tags(surface) is tags
        # A reading of a surface that already has an entry is in its set.
        assert loaded.tags("a") == {"X", "Z"}

    def test_readings_untracked(self):
        """A readings map holds only strings and None, so the cyclic
        collector does not track it: a large lexicon leaves nothing per
        surface for the collector to rescan, and lookups keep that so."""
        lemmas = generate_lemma_lexicon(6, 4, 5, seed=2)
        cases = [load_lexicon("a\tX\nb\tY\tl\na\tZ\n"), lemmas,
                 load_lexicon(dump_lexicon(lemmas)),
                 generate_synthetic(SyntheticConfig(tag_count=8, vocab_size=80,
                                                    sentence_count=5, ambiguity_rate=0.5), 3)[1]]
        for lex in cases:
            assert len(lex) > 1 and max(len(r) for r in lex.entries.values()) > 1
            for surface, readings in lex.items():
                lex.tags(surface)
                assert not gc.is_tracked(readings)


class TestTagClass:
    """A word's tag class is its set of lexicon tags; the MFT baselines key
    a class by its tags, sorted and joined with ';'."""

    def test_key_is_sorted_joined(self):
        lex = make_lexicon({"а": ["Ncmt", "Ncmsh"]})
        table = build_mft(make_corpus(["а/Ncmt"]), lex)
        assert list(table.class_counts) == ["Ncmsh;Ncmt"]

    def test_key_order_independent(self):
        lex = make_lexicon({"а": ["A", "B"], "б": ["B", "A"]})
        table = build_mft(make_corpus(["а/A", "б/B"]), lex)
        assert table.class_counts == {"A;B": {"A": 1, "B": 1}}

    def test_membership(self):
        lex = make_lexicon({"а": ["X"]})
        assert lex.lookup("а") == lex.tags("а") == frozenset({"X"})
        assert "X" in lex.lookup("а") and "Y" not in lex.lookup("а")


class TestLexiconSets:
    def test_out_of_lexicon_fallback(self):
        lex = load_lexicon("a\tX\na\tY\n")
        corpus = make_corpus(["a/X", "b/Z", "c"])
        assert lexicon_sets(lex, corpus.sentences[0]) == [{"X", "Y"}, {"Z"}, {"c"}]

    def test_audit_on_untagged_out_of_lexicon_token(self):
        # An untagged token out of the lexicon enters the cascade as its
        # surface, so a rule testing its candidates sees strings only.
        lex = load_lexicon("a\tX\na\tY\n")
        rules = parse_rules("RULE r1\nIF 0 HAS-PREFIX X\nIF +1 CLASS-IS Z\n"
                            "THEN RETAIN X\nEND\n")
        corpus = make_corpus(["a/X", "b"])
        assert audit_precision(rules, corpus, lex) == {"r1": (0, 0)}


class TestAmbiguityStats:
    def test_hand_computed(self):
        # four tokens: |cands| = 2, 1, 1 (oov), 3 -> two are ambiguous
        lex = make_lexicon({"a": ["X", "Y"], "b": ["X"], "d": ["X", "Y", "Z"]})
        corpus = make_corpus(["a/X", "b/X", "c/X", "d/Z"])
        frac, mean = ambiguity_stats(lex, corpus)
        assert frac == pytest.approx(0.5)
        assert mean == pytest.approx((2 + 1 + 1 + 3) / 4)

    def test_quarter_ambiguous(self):
        lex = make_lexicon({"a": ["X", "Y"], "b": ["X"], "c": ["Y"], "d": ["Z"]})
        corpus = make_corpus(["a/X", "b/X", "c/Y", "d/Z"])
        assert ambiguity_stats(lex, corpus) == (pytest.approx(0.25),
                                                pytest.approx(1.25))

    def test_punctuation_excluded(self):
        lex = make_lexicon({"a": ["X", "Y"], ",": ["U,"]})
        corpus = make_corpus(["a/X", ",/U,"])
        frac, mean = ambiguity_stats(lex, corpus, punct_class="U")
        assert (frac, mean) == (1.0, 2.0)

    @pytest.mark.parametrize("punct_class", ["", "u", "UV", ",", "Ü "])
    def test_punctuation_class_is_one_uppercase_letter(self, punct_class):
        """"" would make every token punctuation, and "u" none."""
        lex = make_lexicon({"a": ["X", "Y"], ",": ["U,"]})
        with pytest.raises(ConfigError, match="punctuation class"):
            ambiguity_stats(lex, make_corpus(["a/X", ",/U,"]), punct_class=punct_class)

    def test_rules_reduce_ambiguity(self):
        lex = make_lexicon({"a": ["X", "Y"]})
        corpus = make_corpus(["a/X"])
        cascade = parse_rules(
            "RULE pick-x\nIF 0 SURFACE-IN a\nTHEN RETAIN X\nEND\n")
        assert ambiguity_stats(lex, corpus)[0] == 1.0
        assert ambiguity_stats(lex, corpus, rules=cascade) == (0.0, 1.0)

    def test_empty_corpus(self):
        assert ambiguity_stats(make_lexicon({}), make_corpus()) == (0.0, 1.0)
