"""Sparse feature extraction for a token inside a partially tagged sentence.

Every feature is a namespaced string with implicit value 1, from three
fixed template groups:
- surface: the word and its neighbours at -2..+2, prefixes and suffixes of
  1 to MAX_AFFIX_LEN characters, digit/hyphen/capital flags, word bigrams;
- lexicon, if enabled: each suggested tag and the suggested set, or
  `lex=<unk>` out of the lexicon;
- tag context: the tags at -2..+2, the pairs (-2,-1), (+1,+2) and (-1,+1),
  and the word with each adjacent tag.  These fire for the neighbours
  already tagged, so vectors grow monotonically as the search commits tags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ConfigError

MAX_AFFIX_LEN = 9


@dataclass(frozen=True)
class FeatureConfig:
    """Whether lexicon suggestions are features, and where the rule cascade
    filters them: "none" never, "rules" in training and decoding, and
    "test-only" in decoding only (training reads them unfiltered).  Without
    lexicon features there is nothing to filter: the filter becomes "none"."""

    use_lexicon_features: bool = True
    lexicon_filter: str = "none"  # "none" | "rules" | "test-only"

    def __post_init__(self):
        if type(self.use_lexicon_features) is not bool:
            raise ConfigError("use_lexicon_features must be true or false, "
                              f"got {self.use_lexicon_features!r}")
        if self.lexicon_filter not in ("none", "rules", "test-only"):
            raise ConfigError(f"unknown lexicon_filter {self.lexicon_filter!r}")
        if not self.use_lexicon_features:
            object.__setattr__(self, "lexicon_filter", "none")

    def for_training(self):
        """The config a model is trained under: "test-only" trains as "none"."""
        return replace(self, lexicon_filter="none") \
            if self.lexicon_filter == "test-only" else self

    def to_dict(self):
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def word_features(words: Sequence[str], i: int, cfg: FeatureConfig,
                  suggested: frozenset[str] | set[str] | None = None) -> list[str]:
    """Surface-only templates plus, optionally, lexicon-suggestion features.

    `suggested` is the (possibly rule-filtered) lexicon tag set for the
    current word, or None when the word is unknown to the lexicon; pass it
    only when lexicon features are enabled.
    """
    w = words[i]
    n = len(words)
    left = words[i - 1] if i >= 1 else "<s>"
    right = words[i + 1] if i + 1 < n else "</s>"
    feats = [f"w0={w}", f"w-1={left}", f"w-2={words[i - 2]}" if i >= 2 else "w-2=<s>",
             f"w+1={right}", f"w+2={words[i + 2]}" if i + 2 < n else "w+2=</s>"]
    for k in range(1, min(MAX_AFFIX_LEN, len(w)) + 1):
        feats.append(f"pre{k}={w[:k]}")
        feats.append(f"suf{k}={w[-k:]}")
    if any(ch.isdigit() for ch in w):
        feats.append("ortho=digit")
    if "-" in w:
        feats.append("ortho=hyphen")
    if w[0].isupper():
        feats.append("ortho=init-upper")
    feats.append(f"wb-1={left}|{w}")
    feats.append(f"wb+1={w}|{right}")
    if cfg.use_lexicon_features:
        if suggested is None:
            feats.append("lex=<unk>")
        else:
            for tag in sorted(suggested):
                feats.append(f"lex={tag}")
            feats.append("lexclass=" + ";".join(sorted(suggested)))
    return feats


def tag_features(words: Sequence[str], i: int, left: Sequence[str] = (),
                 right: Sequence[str] = ()) -> list[str]:
    """Templates over the neighbour tags visible at i: `left` holds the tags
    at i - len(left) .. i - 1, nearest last, and `right` those at
    i + 1 .. i + len(right), nearest first, at most two each.  Empty when
    nothing nearby is tagged yet."""
    t_m1 = left[-1] if left else None
    t_m2 = left[-2] if len(left) > 1 else None
    t_p1 = right[0] if right else None
    t_p2 = right[1] if len(right) > 1 else None
    feats = []
    if t_m1 is not None:
        feats.append(f"t-1={t_m1}")
    if t_m2 is not None:
        feats.append(f"t-2={t_m2}")
    if t_p1 is not None:
        feats.append(f"t+1={t_p1}")
    if t_p2 is not None:
        feats.append(f"t+2={t_p2}")
    # A tag at offset 2 comes with the one at offset 1 on its side.
    if t_m2 is not None:
        feats.append(f"t-2,t-1={t_m2}|{t_m1}")
    if t_p2 is not None:
        feats.append(f"t+1,t+2={t_p1}|{t_p2}")
    if t_m1 is not None and t_p1 is not None:
        feats.append(f"t-1,t+1={t_m1}|{t_p1}")
    w = words[i]
    if t_m1 is not None:
        feats.append(f"w0t-1={w}|{t_m1}")
    if t_p1 is not None:
        feats.append(f"w0t+1={w}|{t_p1}")
    return feats


def suggested_tags(lookups: Sequence[frozenset[str] | None],
                   sets: Sequence[frozenset[str] | set[str]]) -> list[frozenset[str] | None]:
    """Per-position lexicon tag sets for feature emission.

    `lookups[i]` is the lexicon's tag set for word i, None when the word is
    out of the lexicon; `sets[i]` is the set the rule cascade, if any, left
    at i.  A word's suggestion is its set, or None out of the lexicon,
    whatever the cascade made of the set it was given there.
    """
    return [None if tags is None else frozenset(s) for tags, s in zip(lookups, sets)]
