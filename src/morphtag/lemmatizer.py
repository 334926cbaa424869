"""Suffix-rewrite lemmatization: rule generation from a lexicon, compact
suffix-indexed storage, and application to known and unknown wordforms.

A rule is (tag, old_end -> new_end): strip old_end from the wordform, append
new_end.  Rules are generated per lexicon reading by aligning wordform and
lemma on their longest common prefix, and are stored per tag in a
reversed-suffix trie so application picks the longest old_end that is a
suffix of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .lexicon import Lexicon
from .tagset import TagSchema, lemma_compatible


@dataclass(frozen=True)
class LemmaRule:
    tag: str
    old_end: str
    new_end: str


class _TrieNode:
    __slots__ = ("children", "new_end")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.new_end: str | None = None


class LemmaRuleSet:
    """Rules indexed by (tag, reversed old_end) with provenance counts."""

    def __init__(self):
        self._tries: dict[str, _TrieNode] = {}
        self.counts: dict[LemmaRule, int] = {}

    def __len__(self):
        return len(self.counts)

    def add(self, rule: LemmaRule, source: str | None = None):
        root = self._tries.setdefault(rule.tag, _TrieNode())
        node = root
        for ch in reversed(rule.old_end):
            node = node.children.setdefault(ch, _TrieNode())
        if node.new_end is not None and node.new_end != rule.new_end:
            where = f" (from {source})" if source else ""
            raise DataError(
                f"conflicting rules for ({rule.tag}, -{rule.old_end or 'ε'}): "
                f"-> {node.new_end!r} vs -> {rule.new_end!r}{where}")
        node.new_end = rule.new_end
        self.counts[rule] = self.counts.get(rule, 0) + 1

    def match(self, surface: str, tag: str) -> tuple[str, str] | None:
        """Longest old_end that suffixes `surface`, or None."""
        root = self._tries.get(tag)
        if root is None:
            return None
        best = (None, None)
        node = root
        matched = []
        if node.new_end is not None:
            best = ("", node.new_end)
        for ch in reversed(surface):
            node = node.children.get(ch)
            if node is None:
                break
            matched.append(ch)
            if node.new_end is not None:
                best = ("".join(reversed(matched)), node.new_end)
        if best[0] is None:
            return None
        return best

    def rules(self):
        return sorted(self.counts, key=lambda r: (r.tag, r.old_end, r.new_end))


def _extract_rule(wordform: str, tag: str, lemma: str) -> LemmaRule:
    i = 0
    limit = min(len(wordform), len(lemma))
    while i < limit and wordform[i] == lemma[i]:
        i += 1
    return LemmaRule(tag, wordform[i:], lemma[i:])


def generate_rules(lexicon: Lexicon) -> LemmaRuleSet:
    """One rewrite rule per (wordform, tag, lemma) in the lexicon, aligned on
    the longest common prefix; identical rules are deduplicated with their
    provenance counted.  Every reading must carry a lemma."""
    ruleset = LemmaRuleSet()
    for surface in sorted(lexicon.entries):
        entry = lexicon.entries[surface]
        for tag in sorted(entry.readings):
            lemma = entry.readings[tag]
            if lemma is None:
                raise DataError(f"lexicon reading ({surface!r}, {tag!r}) has no lemma")
            ruleset.add(_extract_rule(surface, tag, lemma), source=surface)
    return ruleset


def lemmatize(surface: str, tag: str, rules: LemmaRuleSet,
              lexicon: Lexicon | None = None) -> str:
    """Lemma for (surface, tag): stored lexicon lemma when available, else
    the longest-suffix rule for the tag, else the surface unchanged."""
    if lexicon is not None:
        stored = lexicon.lemma(surface, tag)
        if stored is not None:
            return stored
    match = rules.match(surface, tag)
    if match is None:
        return surface
    old_end, new_end = match
    return surface[:len(surface) - len(old_end)] + new_end if old_end else surface + new_end


def lemma_impact(gold_tags, predicted_tags, schema: TagSchema):
    """Among tagging errors, count those that cannot hurt lemmatization.

    Returns (error_count, non_problematic_count, fraction); the fraction is
    0.0 when there are no errors.
    """
    if len(gold_tags) != len(predicted_tags):
        raise ValueError(f"length mismatch: {len(gold_tags)} vs {len(predicted_tags)}")
    errors = 0
    harmless = 0
    for gold, pred in zip(gold_tags, predicted_tags):
        if gold == pred:
            continue
        errors += 1
        if lemma_compatible(gold, pred, schema):
            harmless += 1
    fraction = harmless / errors if errors else 0.0
    return errors, harmless, fraction


def dump_rules(rules: LemmaRuleSet) -> str:
    lines = [f"{r.tag}\t{r.old_end}\t{r.new_end}\t{rules.counts[r]}" for r in rules.rules()]
    return "\n".join(lines) + ("\n" if lines else "")
