import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag import baselines
from morphtag.baselines import (UNTAGGABLE, DefaultTag, FailUnknown,
                                SuffixGuesser, build_mft, load_guesser,
                                tag_mft, tag_mft_lexicon)
from morphtag.corpus import Sentence, Token
from morphtag.errors import DataError, FormatError
from morphtag.lexicon import Lexicon
from morphtag.synthetic import SyntheticConfig, generate_synthetic, split_corpus


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

    def test_tie_break_drawn_once_per_table(self, monkeypatch):
        draws = []
        real = baselines.random.Random

        def counting(key):
            draws.append(key)
            return real(key)
        monkeypatch.setattr(baselines.random, "Random", counting)
        lex = make_lexicon({"а": ["X", "Y", "Z"], "б": ["X", "Y"]})
        corpus = make_corpus(["а/X", "а/Y", "б/X", "б/Y"])
        s = sent("а", "б", "нов", "а", "нов")
        table = build_mft(corpus, lex)
        first = [tag_mft(s, table, FailUnknown(), seed=5), tag_mft_lexicon(s, table, lex, seed=5)]
        # "а" and "б" tie in both taggers, but "а"'s options differ between
        # them (its best tags, then its class); "нов" takes the fallback
        assert len(draws) == 5
        again = [tag_mft(s, table, FailUnknown(), seed=5), tag_mft_lexicon(s, table, lex, seed=5)]
        tag_mft(s, table, DefaultTag("Z"), seed=5)
        assert len(draws) == 5 and again == first
        tag_mft(s, table, FailUnknown(), seed=6)
        assert len(draws) == 7
        fresh = build_mft(corpus, lex)
        assert [tag_mft_lexicon(s, fresh, lex, seed=5), tag_mft(s, fresh, FailUnknown(), seed=5)] \
            == first[::-1]

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

    @pytest.mark.parametrize("text, line, message", [
        ("a\tX Y\nDEFAULT\tZ\n", 1, "whitespace in tag 'X Y'"),
        ("a\tX\nDEFAULT\tZ\u2028\n", 2, "whitespace in tag 'Z\\u2028'"),
        ("a\tX\n b\tY\nDEFAULT\tZ\n", 2, "whitespace in suffix ' b'"),
    ])
    def test_guesser_whitespace_inside_field_rejected(self, text, line, message):
        with pytest.raises(FormatError) as exc:
            load_guesser(text, "g.tsv")
        assert str(exc.value) == f"g.tsv:{line}: {message}"

    def test_guesser_requires_default(self):
        with pytest.raises(FormatError):
            load_guesser("а\tN\n")
        with pytest.raises(FormatError):
            load_guesser("DEFAULT\tN\n")
        with pytest.raises(ValueError, match="at least one rule"):
            SuffixGuesser((), "X")


    def test_guesser_second_default_rejected(self):
        with pytest.raises(FormatError) as exc:
            load_guesser("DEFAULT\tN\na\tX\nDEFAULT\tV\n", "g.tsv")
        assert str(exc.value) == "g.tsv:3: second DEFAULT line"


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

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 31))
    def test_lexicon_backoff_matches_bruteforce(self, seed):
        """Every token of tag_mft_lexicon against a recount of the whole
        back-off: a unique surface MFT, else a unique class MFT, else a tag
        of the class, and for an out-of-lexicon token a training tag."""
        rng = random.Random(seed)
        surfaces = ["w%d" % k for k in range(8)]
        tags = ["A", "B", "C", "D"]
        lex = make_lexicon({s: rng.sample(tags, rng.randint(1, 3))
                            for s in surfaces if rng.random() < 0.75})
        tokens = [(rng.choice(surfaces), rng.choice(tags))
                  for _ in range(rng.randint(1, 30))]
        table = build_mft(make_corpus(tokens), lex)
        test = sent(*(rng.choice(surfaces + ["oov"]) for _ in range(12)))
        got = tag_mft_lexicon(test, table, lex, seed=rng.randint(0, 99))

        def unique_top(counts):
            top = [t for t in counts if counts[t] == max(counts.values())]
            return top[0] if len(top) == 1 else None

        def klass(surface):
            return frozenset(lex.tags(surface) or ())
        for surface, tag in zip(test.surfaces(), got):
            seen = Counter(t for s, t in tokens if s == surface)
            if seen and unique_top(seen) is not None:
                assert tag == unique_top(seen)
            elif surface not in lex:
                assert tag in {t for _, t in tokens}
            else:
                in_class = Counter(t for s, t in tokens
                                   if s in lex and klass(s) == klass(surface))
                if in_class and unique_top(in_class) is not None:
                    assert tag == unique_top(in_class)
                else:
                    assert tag in klass(surface)


class TestPinned:
    """sha256 of the four strategies' predictions on a synthetic corpus, so
    a change that keeps every tag admissible but picks a different one among
    tied tags still shows.  The test half meets surfaces unseen in training,
    surfaces and classes whose counts tie, and tokens outside the lexicon."""

    @pytest.mark.parametrize("seed, digest", [
        (3, "96f1602bad418d422dbf479a0fd7bb6ded5fcec620ed69ae2c30733a69a9a3ba"),
        (11, "e95fd6fa54907a43308707179d5bb330666706bfcad03e2f2325387703f0a014"),
    ])
    def test_predictions_pinned(self, seed, digest):
        cfg = SyntheticConfig(tag_count=12, vocab_size=300, sentence_count=150,
                              ambiguity_rate=0.5)
        corpus, full = generate_synthetic(cfg, seed)
        train, test = split_corpus(corpus, (0.5, 0.5))
        # every fifth surface leaves the lexicon, so some tokens are outside it
        lex = Lexicon({s: e for k, (s, e) in enumerate(sorted(full.items())) if k % 5})
        table = build_mft(train, lex)
        assert any(sorted(c.values())[-2:] == [max(c.values())] * 2
                   for c in table.surface_counts.values())
        assert any(sorted(c.values())[-2:] == [max(c.values())] * 2
                   for c in table.class_counts.values())
        surfaces = {tok.surface for tok in test.tokens()}
        assert surfaces - table.surface_counts.keys()
        assert surfaces - lex.entries.keys()
        guesser = SuffixGuesser((("0", "A000"), ("5", "B001"), ("7", "C002")), "D003")
        preds = [(tag_mft(s, table, FailUnknown(), seed),
                  tag_mft(s, table, DefaultTag("E004"), seed),
                  tag_mft(s, table, guesser, seed),
                  tag_mft_lexicon(s, table, lex, seed)) for s in test]
        assert hashlib.sha256(repr(preds).encode()).hexdigest() == digest
