import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from morphtag.corpus import Token, read_vertical, stats, write_vertical
from morphtag.errors import ConfigError, DataError, FormatError
from morphtag.lexicon import dump_lexicon
from morphtag.rules import format_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_synthetic,
                                split_corpus)


class TestToken:
    def test_whitespace_is_str_isspace_over_every_code_point(self):
        """A surface is rejected exactly when a character of it is
        whitespace by str.isspace, at every position in the surface."""
        rejected = []
        for cp in range(0x110000):
            ch = chr(cp)
            try:
                Token(f"a{ch}")
            except ValueError:
                rejected.append(ch)
        assert rejected == [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
        for ch in rejected:
            for surface in (ch, f"{ch}a", f"a{ch}b"):
                with pytest.raises(ValueError):
                    Token(surface)

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            Token("")


class TestReadVertical:
    def test_single_token(self):
        corpus = read_vertical("Той\tPpe-os3m\n\n")
        assert len(corpus.sentences) == 1
        assert corpus.sentences[0].tokens[0].surface == "Той"
        assert corpus.sentences[0].tokens[0].gold_tag == "Ppe-os3m"

    def test_empty_input(self):
        assert len(read_vertical("").sentences) == 0

    def test_blank_line_splitting(self):
        corpus = read_vertical("a\tX\nb\tY\n\nc\tX\n")
        assert [len(s) for s in corpus.sentences] == [2, 1]

    def test_trailing_sentence_without_blank(self):
        corpus = read_vertical("a\tX")
        assert len(corpus.sentences) == 1

    def test_untagged_token(self):
        corpus = read_vertical("a\n\n")
        assert corpus.sentences[0].tokens[0].gold_tag is None

    def test_crlf_tolerated(self):
        corpus = read_vertical("a\tX\r\n\r\nb\tY\r\n")
        assert len(corpus.sentences) == 2

    def test_too_many_fields(self):
        with pytest.raises(FormatError) as exc:
            read_vertical("a\tX\tY\tZ\n")
        assert exc.value.line == 1

    def test_empty_surface(self):
        with pytest.raises(FormatError):
            read_vertical("\tX\n")


class TestWriteVertical:
    def test_empty(self):
        assert write_vertical(read_vertical("")) == ""

    def test_single_sentence_layout(self):
        corpus = make_corpus(["a/X", "b/Y"])
        assert write_vertical(corpus) == "a\tX\nb\tY\n\n"

    @settings(max_examples=50)
    @given(st.integers(0, 2 ** 31))
    def test_roundtrip_generated(self, seed):
        cfg = SyntheticConfig(tag_count=5, vocab_size=30, sentence_count=8,
                              min_sentence_len=1, max_sentence_len=6)
        corpus, _ = generate_synthetic(cfg, seed)
        assert read_vertical(write_vertical(corpus)) == corpus


class TestStats:
    def test_empty(self):
        st_ = stats(read_vertical(""))
        assert (st_.sentence_count, st_.token_count, st_.type_count,
                st_.tag_type_count) == (0, 0, 0, 0)

    def test_counts(self):
        corpus = make_corpus(["a/X", "a/X", "b/Y"])
        st_ = stats(corpus)
        assert (st_.sentence_count, st_.token_count, st_.type_count,
                st_.tag_type_count) == (1, 3, 2, 2)

    def test_missing_gold_rejected(self):
        with pytest.raises(DataError):
            stats(read_vertical("a\n\n"))

    def test_sentence_permutation_invariant(self):
        c1 = make_corpus(["a/X"], ["b/Y", "c/Z"])
        c2 = make_corpus(["b/Y", "c/Z"], ["a/X"])
        assert stats(c1) == stats(c2)


class TestSyntheticGenerator:
    def test_deterministic(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=10)
        c1, l1 = generate_synthetic(cfg, 7)
        c2, l2 = generate_synthetic(cfg, 7)
        assert c1 == c2 and l1.entries == l2.entries

    @pytest.mark.parametrize("seed, digest", [
        (3, "6513ee167ed8afc6536ef94c2c75522b548eae1134ed75082ef7b25d02f0bb05"),
        (11, "cb78d8827432fab3791f4531c9c3f54b47844a7cc06130cc49cd7f0676e65377"),
    ])
    def test_output_pinned(self, seed, digest):
        """sha256 of the corpus, the lexicon and the derived safe rules.  The
        corpus has words with three tags, and the rules reach their cap."""
        cfg = SyntheticConfig(tag_count=12, vocab_size=300, sentence_count=150,
                              ambiguity_rate=0.5)
        corpus, lexicon = generate_synthetic(cfg, seed)
        cascade = derive_safe_rules(corpus, lexicon)
        assert len(cascade) == 20
        assert max(len(e.readings) for e in lexicon.entries.values()) == 3
        text = write_vertical(corpus) + dump_lexicon(lexicon) + format_rules(cascade)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_seeds_differ(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=10)
        assert generate_synthetic(cfg, 7)[0] != generate_synthetic(cfg, 8)[0]

    def test_zero_ambiguity(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=5,
                              ambiguity_rate=0.0)
        _, lexicon = generate_synthetic(cfg, 3)
        assert all(len(e.readings) == 1 for e in lexicon.entries.values())

    def test_ambiguity_rate_hit(self):
        cfg = SyntheticConfig(tag_count=30, vocab_size=2000, sentence_count=1000,
                              ambiguity_rate=0.3)
        _, lexicon = generate_synthetic(cfg, 5)
        ambiguous = sum(1 for e in lexicon.entries.values() if len(e.readings) > 1)
        assert abs(ambiguous / len(lexicon.entries) - 0.3) < 0.03

    def test_lexicon_exhaustive(self):
        cfg = SyntheticConfig(tag_count=10, vocab_size=40, sentence_count=20)
        corpus, lexicon = generate_synthetic(cfg, 1)
        for tok in corpus.tokens():
            assert tok.gold_tag in lexicon.tags(tok.surface)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(vocab_size=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(ambiguity_rate=1.5)

    def test_split(self):
        cfg = SyntheticConfig(tag_count=5, vocab_size=20, sentence_count=10)
        corpus, _ = generate_synthetic(cfg, 2)
        train, test = split_corpus(corpus, (0.8, 0.2))
        assert len(train.sentences) == 8 and len(test.sentences) == 2
        assert train.sentences + test.sentences == corpus.sentences
