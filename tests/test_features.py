import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_lexicon
from morphtag.corpus import Sentence, Token
from morphtag.errors import ConfigError
from morphtag.features import (MAX_AFFIX_LEN, FeatureConfig, suggested_tags, tag_features,
                               word_features)
from morphtag.rules import apply_cascade, parse_rules

words_strategy = st.lists(st.text(alphabet="абвгд-5A", min_size=1, max_size=6),
                          min_size=1, max_size=6)


def sent(*surfaces):
    return Sentence(tuple(Token(s) for s in surfaces))


class TestConfig:
    def test_roundtrip(self):
        cfg = FeatureConfig(use_lexicon_features=True, lexicon_filter="rules")
        assert cfg.to_dict() == {"use_lexicon_features": True, "lexicon_filter": "rules"}
        assert FeatureConfig.from_dict(cfg.to_dict()) == cfg
        # Without lexicon features the filter is "none"; a "test-only"
        # filter trains as "none", and no other config changes for training.
        for x in ("none", "rules", "test-only"):
            off = FeatureConfig(use_lexicon_features=False, lexicon_filter=x)
            assert off.lexicon_filter == "none"
            assert off == FeatureConfig(use_lexicon_features=False)
            assert hash(off) == hash(FeatureConfig(use_lexicon_features=False))
            assert off.for_training() == off
        assert FeatureConfig(lexicon_filter="test-only").for_training() == FeatureConfig()
        for x in ("none", "rules"):
            cfg = FeatureConfig(lexicon_filter=x)
            assert cfg.for_training() == cfg

    def test_invalid(self):
        with pytest.raises(ConfigError):
            FeatureConfig(lexicon_filter="bogus")
        for flag in ("no", 0, 1, None):
            with pytest.raises(ConfigError):
                FeatureConfig(use_lexicon_features=flag)


class TestWordFeatures:
    def test_affix_lengths_bounded(self):
        cfg = FeatureConfig(use_lexicon_features=False)
        word = "неочакваното"  # 12 characters
        feats = word_features([word], 0, cfg)
        assert MAX_AFFIX_LEN == 9
        prefixes = [f for f in feats if f.startswith("pre")]
        assert prefixes == [f"pre{k}={word[:k]}" for k in range(1, 10)]
        assert prefixes[-1] == "pre9=неочакван"
        suffixes = [f for f in feats if f.startswith("suf")]
        assert suffixes == [f"suf{k}={word[-k:]}" for k in range(1, 10)]
        assert suffixes[-1] == "suf9=чакваното"

    def test_short_word_affixes_capped_by_length(self):
        cfg = FeatureConfig(use_lexicon_features=False)
        feats = word_features(["на"], 0, cfg)
        assert sum(1 for f in feats if f.startswith("pre")) == 2

    def test_boundary_padding(self):
        cfg = FeatureConfig(use_lexicon_features=False)
        feats = word_features(["а", "б"], 0, cfg)
        assert "w-1=<s>" in feats and "w+1=б" in feats and "w+2=</s>" in feats

    def test_ortho_flags(self):
        cfg = FeatureConfig(use_lexicon_features=False)
        feats = word_features(["По-5"], 0, cfg)
        assert {"ortho=digit", "ortho=hyphen", "ortho=init-upper"} <= set(feats)

    def test_lexicon_suggestions(self):
        cfg = FeatureConfig()
        feats = word_features(["да"], 0, cfg, suggested=frozenset({"Tx", "Ta"}))
        assert "lex=Ta" in feats and "lex=Tx" in feats
        assert "lexclass=Ta;Tx" in feats

    def test_unknown_word_flag(self):
        feats = word_features(["х"], 0, FeatureConfig(), suggested=None)
        assert "lex=<unk>" in feats

    def test_fixed_templates(self):
        cfg = FeatureConfig(use_lexicon_features=False)
        assert word_features(["По-5"], 0, cfg) == [
            "w0=По-5", "w-1=<s>", "w-2=<s>", "w+1=</s>", "w+2=</s>",
            "pre1=П", "suf1=5", "pre2=По", "suf2=-5", "pre3=По-", "suf3=о-5",
            "pre4=По-5", "suf4=По-5", "ortho=digit", "ortho=hyphen", "ortho=init-upper",
            "wb-1=<s>|По-5", "wb+1=По-5|</s>"]


class TestTagFeatures:
    # Every template, in order, with (left, right) = (("X2", "X1"), ("Y1", "Y2")).
    FULL = ["t-1=X1", "t-2=X2", "t+1=Y1", "t+2=Y2", "t-2,t-1=X2|X1", "t+1,t+2=Y1|Y2",
            "t-1,t+1=X1|Y1", "w0t-1=в|X1", "w0t+1=в|Y1"]

    def test_empty_when_nothing_assigned(self):
        assert tag_features(["а", "б"], 0) == []
        assert tag_features(["а", "б"], 0, (), ()) == []

    @pytest.mark.parametrize("nl, nr", itertools.product(range(3), range(3)))
    def test_every_context_shape(self, nl, nr):
        """The nearest `nl` tags on the left and `nr` on the right fire
        exactly the templates whose offsets they all cover, in order."""
        left, right = ("X2", "X1")[2 - nl:], ("Y1", "Y2")[:nr]
        visible = {f"t-{k}" for k in range(1, nl + 1)} | {f"t+{k}" for k in range(1, nr + 1)}
        expected = [f for f in self.FULL
                    if set(re.findall(r"t[-+]\d", f.split("=")[0])) <= visible]
        assert tag_features(["а", "б", "в", "г", "д"], 2, left, right) == expected

    def test_pair_templates(self):
        feats = tag_features(["а", "б", "в"], 1, ("X",), ("Y",))
        assert "t-1,t+1=X|Y" in feats
        assert "w0t-1=б|X" in feats and "w0t+1=б|Y" in feats

    @settings(max_examples=60)
    @given(words_strategy, st.data())
    def test_monotone_in_assignment(self, words, data):
        """Seeing fewer tags, nearest kept, fires a subset of the features."""
        i = data.draw(st.integers(0, len(words) - 1))
        nl = data.draw(st.integers(0, min(2, i)))
        nr = data.draw(st.integers(0, min(2, len(words) - 1 - i)))
        left = tuple(f"T{j}" for j in range(i - nl, i))
        right = tuple(f"T{j}" for j in range(i + 1, i + 1 + nr))
        full = set(tag_features(words, i, left, right))
        kl, kr = data.draw(st.integers(0, nl)), data.draw(st.integers(0, nr))
        assert set(tag_features(words, i, left[nl - kl:], right[:kr])) <= full


class TestDistinctFeatures:
    """A position's static and tag-context features are distinct strings,
    which the tagger's PA step assumes: every template has its own `name=`
    prefix, and the `lex=` features come from a set."""

    chars = "ab|=;-1A<>/s"
    tag = st.one_of(st.sampled_from(["<unk>", "lex=A", "A", "A|B", "s;A"]),
                    st.text(alphabet=chars, min_size=1, max_size=5))

    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet=chars, min_size=1, max_size=MAX_AFFIX_LEN + 3),
                    min_size=1, max_size=6),
           st.one_of(st.none(), st.frozensets(tag, max_size=4)), st.booleans(), st.data())
    def test_no_repeated_string(self, words, suggested, use_lexicon, data):
        i = data.draw(st.integers(0, len(words) - 1))
        left = tuple(data.draw(st.lists(self.tag, max_size=min(2, i))))
        right = tuple(data.draw(st.lists(self.tag, max_size=min(2, len(words) - 1 - i))))
        cfg = FeatureConfig(use_lexicon_features=use_lexicon)
        feats = word_features(words, i, cfg, suggested) + tag_features(words, i, left, right)
        assert len(set(feats)) == len(feats), feats


class TestSuggestedTags:
    """Which cascade filters the suggestions is the tagger's choice; see
    TestLexiconPass in test_tagger.py."""

    CASCADE = parse_rules("RULE r\nIF 0 SURFACE-IN да\nTHEN RETAIN Ta\nEND\n")

    def test_plain_lookup(self):
        lex = make_lexicon({"да": ["Ta", "Tx"]})
        lookups = [lex.tags("да"), lex.tags("х")]
        assert suggested_tags(lookups, lookups) == [frozenset({"Ta", "Tx"}), None]

    def test_rule_filtering(self):
        lex = make_lexicon({"да": ["Ta", "Tx"]})
        lookups = [lex.tags("да")]
        sets = apply_cascade(self.CASCADE, sent("да"), lookups)
        assert suggested_tags(lookups, sets) == [frozenset({"Ta"})]

    def test_oov_stays_none_under_rules(self):
        lex = make_lexicon({"да": ["Ta", "Tx"]})
        lookups = [lex.tags("х"), lex.tags("да")]
        sets = apply_cascade(self.CASCADE, sent("х", "да"), [{"Ta", "Tx"}, lookups[1]])
        out = suggested_tags(lookups, sets)
        assert out[0] is None and out[1] == frozenset({"Ta"})
