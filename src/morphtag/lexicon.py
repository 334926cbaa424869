"""Morphological lexicon: wordform -> admissible tags (optionally with lemmas).

File format: one `surface<TAB>tag[<TAB>lemma]` line per reading; repeated
surfaces accumulate readings.  Lines break at "\n" alone (`text_lines`);
blank and whitespace-only lines are skipped.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .corpus import Corpus, Sentence, _has_space, text_lines
from .errors import ConfigError, DataError, FormatError
from .tagset import is_valid_tag


class Lexicon:
    """Surface -> readings map ({tag: lemma or None}); lookups are pure.

    A readings map holds only strings and None, so the collector does not
    track it.  A surface's tag set is built on its first lookup and held, so
    every later lookup returns the same frozenset, never to be mutated."""

    def __init__(self, entries: dict[str, dict[str, str | None]] | None = None):
        self.entries: dict[str, dict[str, str | None]] = entries or {}
        self._sets: dict[str, frozenset[str]] = {}

    def __len__(self):
        return len(self.entries)

    def __contains__(self, surface):
        return surface in self.entries

    def tags(self, surface: str) -> frozenset[str] | None:
        tags = self._sets.get(surface)
        if tags is None:
            readings = self.entries.get(surface)
            if readings is not None:
                tags = self._sets[surface] = frozenset(readings)
        return tags

    lookup = tags  # the older name of the same lookup

    def lemma(self, surface: str, tag: str) -> str | None:
        readings = self.entries.get(surface)
        return None if readings is None else readings.get(tag)

    def all_tags(self) -> set[str]:
        return set().union(*self.entries.values())

    def items(self):
        """(surface, readings) pairs."""
        return self.entries.items()


def load_lexicon(text: str, path=None) -> Lexicon:
    entries: dict[str, dict[str, str | None]] = {}
    known_tags: set[str] = set()  # tags already checked for whitespace
    for lineno, line in enumerate(text_lines(text), 1):
        if not line or line.isspace():
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise FormatError(f"expected 2 or 3 tab-separated fields, got {len(fields)}",
                              lineno, path)
        surface, tag = fields[0], fields[1]
        if not surface or not tag:
            raise FormatError("empty surface or tag", lineno, path)
        lemma = fields[2] if len(fields) == 3 and fields[2] else None
        readings = entries.get(surface)
        if readings is None:
            if _has_space(surface):
                raise FormatError(f"whitespace in surface {surface!r}", lineno, path)
            readings = entries[surface] = {}
        if tag not in known_tags:
            if _has_space(tag):
                raise FormatError(f"whitespace in tag {tag!r}", lineno, path)
            known_tags.add(tag)
        if tag in readings:
            old = readings[tag]
            if lemma is not None and old is not None and lemma != old:
                raise DataError(
                    f"{path or '<lexicon>'}:{lineno}: conflicting lemmas for "
                    f"({surface!r}, {tag!r}): {old!r} vs {lemma!r}")
            if lemma is not None:
                readings[tag] = lemma
        else:
            readings[tag] = lemma
    return Lexicon(entries)


def dump_lexicon(lexicon: Lexicon) -> str:
    lines = []
    for surface in sorted(lexicon.entries):
        readings = lexicon.entries[surface]
        for tag in sorted(readings):
            lemma = readings[tag]
            if lemma is None:
                lines.append(f"{surface}\t{tag}")
            else:
                lines.append(f"{surface}\t{tag}\t{lemma}")
    return "\n".join(lines) + ("\n" if lines else "")


def lexicon_sets(lexicon: Lexicon, sentence: Sentence) -> list[frozenset[str]]:
    """Each token's lexicon tags; an out-of-lexicon token gets a single tag:
    its gold tag, or its surface when it has none.  The list is new, but a
    known token's set is the lexicon's own, shared and never to be
    mutated."""
    tags = lexicon.tags
    return [tags(tok.surface) or frozenset((tok.gold_tag or tok.surface,))
            for tok in sentence.tokens]


def ambiguity_stats(lexicon: Lexicon, corpus: Corpus, rules=None,
                    punct_class: str | None = "U"):
    """(ambiguous_token_fraction, mean_tags_per_token) over non-punctuation
    tokens.

    Candidate sets come from the lexicon, optionally reduced by a rule
    cascade; out-of-lexicon tokens count as having a single tag.  A token is
    punctuation when its gold tag (or, lacking one, every lexicon tag) is in
    the punctuation class.  The class is None (no token is punctuation) or
    one class letter, as a tag's first character: an uppercase letter, else
    ConfigError.  Without rules, or in a sentence that no rule can visit, a
    token's count depends only on its surface and gold tag, so each distinct
    pair is counted once, from the lexicon's own set.  No set is copied or
    mutated.
    """
    from .rules import _visits, apply_cascade  # local import to avoid a cycle

    if punct_class is not None and not (len(punct_class) == 1 and is_valid_tag(punct_class)):
        raise ConfigError(f"the punctuation class must be one uppercase letter, "
                          f"not {punct_class!r}")

    plain, swept = [], []
    for sent in corpus:
        (swept if rules is not None and _visits(rules, sent) else plain).append(sent)
    pairs = Counter((tok.surface, tok.gold_tag) for sent in plain for tok in sent.tokens)
    rows = chain(((gold, lexicon.tags(surface) or (gold or surface,), k)
                  for (surface, gold), k in pairs.items()),
                 ((tok.gold_tag, cands, 1) for sent in swept
                  for tok, cands in zip(sent.tokens,
                                        apply_cascade(rules, sent, lexicon_sets(lexicon, sent)))))
    n = 0
    ambiguous = 0
    total_tags = 0
    for gold, cands, k in rows:
        if punct_class is not None:
            if gold is not None:
                if gold.startswith(punct_class):
                    continue
            elif all(t.startswith(punct_class) for t in cands):
                continue
        size = len(cands)
        n += k
        total_tags += k * size
        if size > 1:
            ambiguous += k
    if n == 0:
        return 0.0, 1.0
    return ambiguous / n, total_tags / n
