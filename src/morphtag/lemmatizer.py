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

    def _node(self, tag: str, old_end: str) -> _TrieNode:
        """The trie node of (tag, old_end), made with its path if absent."""
        node = self._tries.get(tag)
        if node is None:
            node = self._tries[tag] = _TrieNode()
        for ch in reversed(old_end):
            child = node.children.get(ch)
            if child is None:
                child = node.children[ch] = _TrieNode()
            node = child
        return node

    def add(self, rule: LemmaRule, source: str | None = None):
        node = self._node(rule.tag, rule.old_end)
        if node.new_end is not None and node.new_end != rule.new_end:
            raise _conflict(rule.tag, rule.old_end, node.new_end, rule.new_end, source)
        node.new_end = rule.new_end
        self.counts[rule] = self.counts.get(rule, 0) + 1

    def match(self, surface: str, tag: str) -> tuple[str, str] | None:
        """Longest old_end that suffixes `surface`, or None."""
        node = self._tries.get(tag)
        if node is None:
            return None
        new_end = node.new_end
        depth = matched = 0
        for ch in reversed(surface):
            node = node.children.get(ch)
            if node is None:
                break
            depth += 1
            if node.new_end is not None:
                matched, new_end = depth, node.new_end
        if new_end is None:
            return None
        return surface[len(surface) - matched:], new_end

    def rules(self):
        return sorted(self.counts, key=lambda r: (r.tag, r.old_end, r.new_end))


def _conflict(tag: str, old_end: str, new_end: str, other: str,
              source: str | None) -> DataError:
    where = f" (from {source})" if source else ""
    return DataError(f"conflicting rules for ({tag}, -{old_end or 'ε'}): "
                     f"-> {new_end!r} vs -> {other!r}{where}")


def generate_rules(lexicon: Lexicon) -> LemmaRuleSet:
    """One rewrite rule per (wordform, tag, lemma) in the lexicon, aligned on
    the longest common prefix; identical rules are deduplicated with their
    provenance counted.  Every reading must carry a lemma."""
    counts: dict[tuple[str, str, str], int] = {}  # (tag, old_end, new_end) -> readings
    new_ends: dict[tuple[str, str], str] = {}     # (tag, old_end) -> its new_end
    for surface in sorted(lexicon.entries):
        readings = lexicon.entries[surface]
        for tag in sorted(readings):
            lemma = readings[tag]
            if lemma is None:
                raise DataError(f"lexicon reading ({surface!r}, {tag!r}) has no lemma")
            i = 0
            limit = min(len(surface), len(lemma))
            while i < limit and surface[i] == lemma[i]:
                i += 1
            old_end, new_end = surface[i:], lemma[i:]
            known = new_ends.setdefault((tag, old_end), new_end)
            if known != new_end:
                raise _conflict(tag, old_end, known, new_end, surface)
            rule = (tag, old_end, new_end)
            counts[rule] = counts.get(rule, 0) + 1
    # Each distinct rule goes into its trie once.
    ruleset = LemmaRuleSet()
    for (tag, old_end, new_end), n in counts.items():
        ruleset._node(tag, old_end).new_end = new_end
        ruleset.counts[LemmaRule(tag, old_end, new_end)] = n
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
