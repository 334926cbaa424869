"""Most-frequent-tag baselines.

All baseline taggers are context-free: a token's tag depends only on its
surface, the frequency tables, and the seed, never on its neighbours.
Frequency ties are broken by a seeded per-surface choice so that runs
replicate exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .corpus import Corpus, Sentence, _has_space, text_lines
from .errors import DataError, FormatError
from .lexicon import Lexicon

UNTAGGABLE = "<UNTAGGABLE>"


@dataclass
class MftTable:
    surface_counts: dict[str, Counter]
    class_counts: dict[str, Counter]  # sorted lexicon tags, ";"-joined -> tag counts
    # The decisions the taggers read, made once by build_mft: each surface's
    # and each class's most frequent tags, sorted, and the sorted training
    # tags an out-of-lexicon token picks from (UNTAGGABLE alone if none).
    surface_best: dict[str, tuple[str, ...]]
    class_best: dict[str, tuple[str, ...]]
    fallback: tuple[str, ...]
    # Seeded tie-break picks, keyed (seed, surface, options): each is drawn
    # once per table.
    picks: dict = field(default_factory=dict, repr=False, compare=False)


def build_mft(corpus: Corpus, lexicon: Lexicon | None = None) -> MftTable:
    """Count gold tags per surface and, when a lexicon is given, per
    lexicon tag-class, then make every decision the taggers read from them."""
    # Counted per distinct (surface, tag) pair, in first-seen order, so every
    # table keeps the order in which its keys first occur in the corpus.
    pairs = Counter((tok.surface, tok.gold_tag) for tok in corpus.tokens())
    surface_counts: dict[str, Counter] = {}
    class_counts: dict[str, Counter] = {}
    class_of: dict[str, Counter | None] = {}  # surface -> its class's counts
    for (surface, tag), n in pairs.items():
        if tag is None:
            raise DataError(f"token {surface!r} has no gold tag")
        counts = surface_counts.get(surface)
        if counts is None:
            counts = surface_counts[surface] = Counter()
            tags = lexicon.tags(surface) if lexicon is not None else None
            if tags is None:
                class_of[surface] = None
            else:
                key = ";".join(sorted(tags))
                cls = class_counts.get(key)
                if cls is None:
                    cls = class_counts[key] = Counter()
                class_of[surface] = cls
        counts[tag] = n
        cls = class_of[surface]
        if cls is not None:
            cls[tag] += n
    return MftTable(surface_counts, class_counts,
                    {s: _most_frequent(c) for s, c in surface_counts.items()},
                    {k: _most_frequent(c) for k, c in class_counts.items()},
                    tuple(sorted({tag for _, tag in pairs})) or (UNTAGGABLE,))


def _seeded_choice(table: MftTable, options, seed: int, surface: str) -> str:
    key = (seed, surface, options)
    pick = table.picks.get(key)
    if pick is None:
        rng = random.Random(f"mft:{seed}:{surface}")
        pick = table.picks[key] = rng.choice(sorted(options))
    return pick


def _most_frequent(counts: Counter) -> tuple[str, ...]:
    """The tags of the highest count, sorted."""
    if len(counts) == 1:
        return tuple(counts)
    top = max(counts.values())
    return tuple(sorted(tag for tag, c in counts.items() if c == top))


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
    """Guesser table: ordered `suffix<TAB>tag` lines plus exactly one
    `DEFAULT<TAB>tag` line."""
    rules = []
    default = None
    for lineno, line in enumerate(text_lines(text), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError("expected `suffix<TAB>tag`", lineno, path)
        for name, value in zip(("suffix", "tag"), fields):
            if _has_space(value):
                raise FormatError(f"whitespace in {name} {value!r}", lineno, path)
        if fields[0] == "DEFAULT":
            if default is not None:
                raise FormatError("second DEFAULT line", lineno, path)
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
    surface_best = table.surface_best
    out = []
    for tok in sentence.tokens:
        best = surface_best.get(tok.surface)
        if best is not None:
            out.append(best[0] if len(best) == 1
                       else _seeded_choice(table, best, seed, tok.surface))
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
    surface_best = table.surface_best
    out = []
    for tok in sentence.tokens:
        best = surface_best.get(tok.surface)
        if best is not None and len(best) == 1:
            out.append(best[0])
            continue
        tags = lexicon.tags(tok.surface)
        if tags is None:
            out.append(_seeded_choice(table, table.fallback, seed, tok.surface))
            continue
        best = table.class_best.get(";".join(sorted(tags)))
        if best is not None and len(best) == 1:
            out.append(best[0])
            continue
        out.append(_seeded_choice(table, tags, seed, tok.surface))
    return out
