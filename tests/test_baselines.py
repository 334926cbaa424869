import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag.baselines import (UNTAGGABLE, DefaultTag, FailUnknown,
                                SuffixGuesser, build_mft, load_guesser,
                                tag_mft, tag_mft_lexicon)
from morphtag.corpus import Sentence, Token
from morphtag.errors import DataError, FormatError


def sent(*surfaces):
    return Sentence(tuple(Token(s, None) for s in surfaces))


class TestBuild:
    def test_counts(self):
        corpus = make_corpus(["а/X", "а/X", "а/Y"])
        table = build_mft(corpus)
        assert table.surface_counts["а"] == Counter({"X": 2, "Y": 1})

    def test_class_counts(self):
        lex = make_lexicon({"а": ["X", "Y"], "б": ["X", "Y"]})
        corpus = make_corpus(["а/X", "б/Y"])
        table = build_mft(corpus, lex)
        assert table.class_counts["X;Y"] == Counter({"X": 1, "Y": 1})

    def test_untagged_rejected(self):
        with pytest.raises(DataError):
            build_mft(make_corpus(["а"]))


class TestKnownWords:
    def test_most_frequent_wins(self):
        # политика is mostly a feminine noun in running text
        corpus = make_corpus(["политика/Ncfsi", "политика/Ncfsi",
                              "политика/Ncmsh"])
        table = build_mft(corpus)
        assert tag_mft(sent("политика"), table, FailUnknown()) == ["Ncfsi"]

    def test_tie_break_deterministic(self):
        table = build_mft(make_corpus(["а/X", "а/Y"]))
        runs = {tuple(tag_mft(sent("а"), table, FailUnknown(), seed=5))
                for _ in range(5)}
        assert len(runs) == 1

    def test_tie_break_seed_dependent(self):
        table = build_mft(make_corpus(["а/X", "а/Y"]))
        picks = {tag_mft(sent("а"), table, FailUnknown(), seed=s)[0]
                 for s in range(40)}
        assert picks == {"X", "Y"}

    def test_context_free(self):
        table = build_mft(make_corpus(["а/X", "б/Y"]))
        alone = tag_mft(sent("а"), table, FailUnknown())[0]
        flanked = tag_mft(sent("б", "а", "б"), table, FailUnknown())[1]
        assert alone == flanked


class TestUnknownStrategies:
    def test_fail(self):
        table = build_mft(make_corpus(["а/X"]))
        assert tag_mft(sent("нов"), table, FailUnknown()) == [UNTAGGABLE]

    def test_default(self):
        table = build_mft(make_corpus(["а/X"]))
        assert tag_mft(sent("нов"), table, DefaultTag("Ncmsi")) == ["Ncmsi"]

    def test_guesser_order_and_default(self):
        g = SuffixGuesser((("ът", "Ncmsf"), ("т", "Vx")), "Ncmsi")
        assert g.guess("градът") == "Ncmsf"  # first match, not the later "т"
        assert g.guess("пет") == "Vx"
        assert g.guess("болка") == "Ncmsi"

    def test_bundled_style_guesser(self):
        g = load_guesser("а\tNcfsi\nо\tNcnsi\nи\tNcfsi\nът\tNcmsf\n"
                         "DEFAULT\tNcmsi\n")
        table = build_mft(make_corpus(["х/X"]))
        out = tag_mft(sent("вода", "село", "мъри", "светът", "креват"),
                      table, g)
        assert out == ["Ncfsi", "Ncnsi", "Ncfsi", "Ncmsf", "Ncmsi"]

    def test_guesser_requires_default(self):
        with pytest.raises(FormatError):
            load_guesser("а\tN\n")
        with pytest.raises(FormatError):
            load_guesser("DEFAULT\tN\n")


class TestLexiconBackoff:
    def test_surface_first(self):
        lex = make_lexicon({"а": ["X", "Y"]})
        corpus = make_corpus(["а/X", "а/X", "а/Y"])
        table = build_mft(corpus, lex)
        assert tag_mft_lexicon(sent("а"), table, lex) == ["X"]

    def test_class_backoff_for_unseen_member(self):
        # бряг was never seen, but its class {Ncmsi;Ncmt} leans Ncmt overall
        lex = make_lexicon({"лв": ["Ncmsi", "Ncmt"], "бряг": ["Ncmsi", "Ncmt"]})
        corpus = make_corpus(["лв/Ncmt", "лв/Ncmt", "лв/Ncmsi"])
        table = build_mft(corpus, lex)
        assert tag_mft_lexicon(sent("бряг"), table, lex) == ["Ncmt"]

    def test_class_backoff_on_surface_tie(self):
        lex = make_lexicon({"а": ["X", "Y"], "б": ["X", "Y"]})
        corpus = make_corpus(["а/X", "а/Y", "б/X"])
        table = build_mft(corpus, lex)
        # surface counts tie, class counts prefer X
        assert tag_mft_lexicon(sent("а"), table, lex) == ["X"]

    def test_random_within_class_when_all_ties(self):
        lex = make_lexicon({"а": ["X", "Y"]})
        table = build_mft(make_corpus(["а/X", "а/Y"]), lex)
        picks = {tag_mft_lexicon(sent("а"), table, lex, seed=s)[0]
                 for s in range(40)}
        assert picks == {"X", "Y"}

    def test_oov_fallback_to_training_tags(self):
        lex = make_lexicon({"а": ["X"]})
        table = build_mft(make_corpus(["а/X"]), lex)
        assert tag_mft_lexicon(sent("нов"), table, lex) == ["X"]


class TestOracle:
    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 31))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        surfaces = ["w%d" % k for k in range(6)]
        tags = ["A", "B", "C"]
        tokens = [(rng.choice(surfaces), rng.choice(tags))
                  for _ in range(rng.randint(3, 30))]
        corpus = make_corpus(tokens)
        table = build_mft(corpus)
        test = sent(*(rng.choice(surfaces + ["oov"]) for _ in range(8)))
        got = tag_mft(test, table, DefaultTag("A"), seed=1)
        for surface, tag in zip((t.surface for t in test.tokens), got):
            seen = Counter(t for s, t in tokens if s == surface)
            if not seen:
                assert tag == "A"
            else:
                assert seen[tag] == max(seen.values())
