"""Most-frequent-tag baselines.

All baseline taggers are context-free: a token's tag depends only on its
surface, the frequency tables, and the seed, never on its neighbours.
Frequency ties are broken by a seeded per-surface choice so that runs
replicate exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Sentence, text_lines
from .errors import DataError, FormatError
from .lexicon import Lexicon

UNTAGGABLE = "<UNTAGGABLE>"


@dataclass
class MftTable:
    surface_counts: dict[str, Counter]
    class_counts: dict[str, Counter]  # sorted lexicon tags, ";"-joined -> tag counts


def build_mft(corpus: Corpus, lexicon: Lexicon | None = None) -> MftTable:
    """Count gold tags per surface and, when a lexicon is given, per
    lexicon tag-class."""
    surface_counts: dict[str, Counter] = {}
    class_counts: dict[str, Counter] = {}
    for tok in corpus.tokens():
        if tok.gold_tag is None:
            raise DataError(f"token {tok.surface!r} has no gold tag")
        surface_counts.setdefault(tok.surface, Counter())[tok.gold_tag] += 1
        if lexicon is not None:
            tags = lexicon.tags(tok.surface)
            if tags is not None:
                class_counts.setdefault(";".join(sorted(tags)), Counter())[tok.gold_tag] += 1
    return MftTable(surface_counts, class_counts)


def _seeded_choice(options, seed: int, surface: str) -> str:
    rng = random.Random(f"mft:{seed}:{surface}")
    return rng.choice(sorted(options))


def _most_frequent(counts: Counter):
    """(set of argmax tags, whether the maximum is unique)."""
    top = max(counts.values())
    best = {tag for tag, c in counts.items() if c == top}
    return best, len(best) == 1


# Unknown-word strategies -------------------------------------------------

@dataclass(frozen=True)
class FailUnknown:
    """Unknown words are marked untaggable and scored wrong."""


@dataclass(frozen=True)
class DefaultTag:
    tag: str


@dataclass(frozen=True)
class SuffixGuesser:
    """Ordered (suffix, tag) list; first matching suffix wins."""

    rules: tuple[tuple[str, str], ...]
    default: str

    def __post_init__(self):
        if not self.rules:
            raise ValueError("suffix guesser needs at least one rule")

    def guess(self, surface: str) -> str:
        for suffix, tag in self.rules:
            if surface.endswith(suffix):
                return tag
        return self.default


def load_guesser(text: str, path=None) -> SuffixGuesser:
    """Guesser table: ordered `suffix<TAB>tag` lines plus one
    `DEFAULT<TAB>tag` line."""
    rules = []
    default = None
    for lineno, line in enumerate(text_lines(text), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError("expected `suffix<TAB>tag`", lineno, path)
        if fields[0] == "DEFAULT":
            default = fields[1]
        else:
            rules.append((fields[0], fields[1]))
    if default is None:
        raise FormatError("guesser table has no DEFAULT line", None, path)
    if not rules:
        raise FormatError("guesser table has no suffix rules", None, path)
    return SuffixGuesser(tuple(rules), default)


def tag_mft(sentence: Sentence, table: MftTable, strategy, seed: int = 0) -> list[str]:
    """MFT tagging with one of the three lexicon-free unknown strategies."""
    out = []
    for tok in sentence.tokens:
        counts = table.surface_counts.get(tok.surface)
        if counts:
            best, _ = _most_frequent(counts)
            out.append(next(iter(best)) if len(best) == 1
                       else _seeded_choice(best, seed, tok.surface))
        elif isinstance(strategy, FailUnknown):
            out.append(UNTAGGABLE)
        elif isinstance(strategy, DefaultTag):
            out.append(strategy.tag)
        elif isinstance(strategy, SuffixGuesser):
            out.append(strategy.guess(tok.surface))
        else:
            raise TypeError(f"unknown strategy {strategy!r}")
    return out


def tag_mft_lexicon(sentence: Sentence, table: MftTable, lexicon: Lexicon,
                    seed: int = 0) -> list[str]:
    """MFT with tag-class backoff.

    Per token: (1) the unique most frequent tag for the surface, if any;
    else (2) the unique most frequent training tag of its lexicon tag-class;
    else (3) a seeded-random member of the tag-class.  Tokens absent from
    the lexicon fall back to a seeded-random choice over all training tags.
    """
    fallback = {t for c in table.surface_counts.values() for t in c}
    out = []
    for tok in sentence.tokens:
        counts = table.surface_counts.get(tok.surface)
        if counts:
            best, unique = _most_frequent(counts)
            if unique:
                out.append(next(iter(best)))
                continue
        tags = lexicon.tags(tok.surface)
        if tags is None:
            out.append(_seeded_choice(fallback or {UNTAGGABLE}, seed, tok.surface))
            continue
        class_counts = table.class_counts.get(";".join(sorted(tags)))
        if class_counts:
            best, unique = _most_frequent(class_counts)
            if unique:
                out.append(next(iter(best)))
                continue
        out.append(_seeded_choice(tags, seed, tok.surface))
    return out
