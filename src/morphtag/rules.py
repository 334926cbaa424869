"""Cascaded contextual disambiguation rules over per-token candidate tag sets.

Rules are reductive: each application may only remove candidates, and a rule
that would empty a token's set does not fire on that token.  Later rules see
the candidate sets already filtered by earlier ones, and each rule sweeps
the sentence left to right evaluating its conditions against the current
(partially filtered) sets.

The conditions that never read the candidate sets (SURFACE-IN, SENT-INITIAL,
SENT-FINAL) pick a rule's positions before its sweep, through an index from
each surface of the sentence to its positions; the sweep visits only those,
still left to right, and tests the other conditions there.  A rule without
such a condition visits every position.  A cascade also indexes its rules by
the values of each rule's first SURFACE-IN condition, so a sentence visits,
in cascade order, only the rules one of its surfaces names and the rules
without a SURFACE-IN condition.  Skipped rules and positions are exactly
those where a rule cannot match, so the outputs and the order in which rules
fire are those of testing every rule at every position.

Rules never write into a candidate set: a rule that fires replaces the set
with a new one.  So `apply_cascade` returns the caller's set objects where no
rule changed them, and never mutates its input.

DSL, one rule per block:

    RULE <id>
    IF <offset> SURFACE-IN w1,w2,...
    IF <offset> CLASS-IS t1;t2;...
    IF <offset> HAS-PREFIX p
    IF <offset> SENT-INITIAL
    IF <offset> SENT-FINAL
    IF <offset> NUMERAL
    THEN RETAIN p1,p2,...      (or THEN REMOVE p1,p2,...)
    END

Offsets are -2..+2 relative to the current token, some condition must use
offset 0, and a block has one THEN.  Tag patterns (HAS-PREFIX, RETAIN,
REMOVE) match by string prefix.  NUMERAL holds when the surface is all
digits or every candidate tag starts with the numeral class prefix ("M").
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, Sentence, text_lines
from .errors import DataError, FormatError
from .lexicon import lexicon_sets

NUMERAL_TAG_PREFIX = "M"

_KINDS = {"SURFACE-IN", "CLASS-IS", "HAS-PREFIX", "SENT-INITIAL", "SENT-FINAL", "NUMERAL"}


@dataclass(frozen=True)
class Condition:
    offset: int
    kind: str
    values: tuple[str, ...] = ()

    def holds(self, sentence: Sentence, position: int, sets: list[set[str]]) -> bool:
        i = position + self.offset
        if i < 0 or i >= len(sentence.tokens):
            return False
        surface = sentence.tokens[i].surface
        cands = sets[i]
        if self.kind == "SURFACE-IN":
            return surface in self.values
        if self.kind == "CLASS-IS":
            return ";".join(sorted(cands)) == self.values[0]
        if self.kind == "HAS-PREFIX":
            return any(tag.startswith(self.values[0]) for tag in cands)
        if self.kind == "SENT-INITIAL":
            return i == 0
        if self.kind == "SENT-FINAL":
            return i == len(sentence.tokens) - 1
        if self.kind == "NUMERAL":
            return surface.isdigit() or all(t.startswith(NUMERAL_TAG_PREFIX) for t in cands)
        raise AssertionError(self.kind)


@dataclass(frozen=True)
class Rule:
    rule_id: str
    conditions: tuple[Condition, ...]
    action: str  # RETAIN | REMOVE
    patterns: tuple[str, ...]

    def matches(self, sentence: Sentence, position: int, sets: list[set[str]]) -> bool:
        return all(c.holds(sentence, position, sets) for c in self.conditions)

    def filtered(self, cands: set[str]) -> set[str]:
        if self.action == "RETAIN":
            return {t for t in cands if any(t.startswith(p) for p in self.patterns)}
        return {t for t in cands if not any(t.startswith(p) for p in self.patterns)}


@dataclass(frozen=True)
class RuleCascade:
    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        # The index is not a field, so equality and hashing read `rules` alone.
        by_surface: dict[str, list[int]] = {}
        always = []
        for k, rule in enumerate(self.rules):
            keyed = next((c for c in rule.conditions if c.kind == "SURFACE-IN"), None)
            if keyed is None:
                always.append(k)
            else:
                for value in dict.fromkeys(keyed.values):
                    by_surface.setdefault(value, []).append(k)
        object.__setattr__(self, "_by_surface", by_surface)
        object.__setattr__(self, "_always", tuple(always))

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def parse_rules(text: str, path=None) -> RuleCascade:
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    rule_id = None
    conditions: list[Condition] = []
    action = None
    patterns: tuple[str, ...] = ()
    for lineno, raw in enumerate(text_lines(text), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        keyword = parts[0]
        if keyword == "RULE":
            if rule_id is not None:
                raise FormatError("RULE inside an unterminated rule block", lineno, path)
            if len(parts) != 2:
                raise FormatError("RULE needs exactly one id", lineno, path)
            rule_id = parts[1]
            if rule_id in seen_ids:
                raise DataError(f"{path or '<rules>'}:{lineno}: duplicate rule id {rule_id!r}")
            conditions, action, patterns = [], None, ()
        elif keyword == "IF":
            if rule_id is None:
                raise FormatError("IF outside a rule block", lineno, path)
            if len(parts) < 3:
                raise FormatError("IF needs an offset and a condition", lineno, path)
            try:
                offset = int(parts[1])
            except ValueError:
                raise FormatError(f"bad offset {parts[1]!r}", lineno, path) from None
            if not -2 <= offset <= 2:
                raise FormatError(f"offset {offset} outside the -2..+2 window", lineno, path)
            body = parts[2].split(None, 1)
            kind = body[0]
            if kind not in _KINDS:
                raise FormatError(f"unknown condition {kind!r}", lineno, path)
            if kind in ("SENT-INITIAL", "SENT-FINAL", "NUMERAL"):
                if len(body) > 1:
                    raise FormatError(f"{kind} takes no argument", lineno, path)
                values: tuple[str, ...] = ()
            else:
                if len(body) != 2:
                    raise FormatError(f"{kind} needs an argument", lineno, path)
                if kind == "SURFACE-IN":
                    values = tuple(w for w in body[1].split(",") if w)
                    if not values:
                        # an argument made only of commas is a literal surface
                        values = (body[1],)
                elif kind == "CLASS-IS":
                    values = (";".join(sorted(t for t in body[1].split(";") if t)),)
                else:  # HAS-PREFIX
                    values = (body[1],)
                if not values or not all(values):
                    raise FormatError(f"{kind} argument is empty", lineno, path)
            conditions.append(Condition(offset, kind, values))
        elif keyword == "THEN":
            if rule_id is None:
                raise FormatError("THEN outside a rule block", lineno, path)
            if action is not None:
                raise FormatError(f"rule {rule_id!r} has a second THEN action", lineno, path)
            if len(parts) != 3 or parts[1] not in ("RETAIN", "REMOVE"):
                raise FormatError("THEN needs RETAIN or REMOVE and a pattern list", lineno, path)
            action = parts[1]
            patterns = tuple(p for p in parts[2].split(",") if p)
            if not patterns:
                raise FormatError("empty pattern set", lineno, path)
        elif keyword == "END":
            if rule_id is None:
                raise FormatError("END outside a rule block", lineno, path)
            if action is None:
                raise FormatError(f"rule {rule_id!r} has no THEN action", lineno, path)
            if not any(c.offset == 0 for c in conditions):
                raise FormatError(f"rule {rule_id!r} has no condition at offset 0", lineno, path)
            rules.append(Rule(rule_id, tuple(conditions), action, patterns))
            seen_ids.add(rule_id)
            rule_id = None
        else:
            raise FormatError(f"unexpected keyword {keyword!r}", lineno, path)
    if rule_id is not None:
        raise FormatError(f"unterminated rule {rule_id!r}", None, path)
    return RuleCascade(tuple(rules))


def format_rules(cascade: RuleCascade) -> str:
    """Serialize a cascade back to DSL text; parse_rules round-trips it."""
    blocks = []
    for rule in cascade:
        lines = [f"RULE {rule.rule_id}"]
        for cond in rule.conditions:
            offset = f"+{cond.offset}" if cond.offset > 0 else str(cond.offset)
            if cond.kind == "SURFACE-IN":
                lines.append(f"IF {offset} SURFACE-IN {','.join(cond.values)}")
            elif cond.kind in ("CLASS-IS", "HAS-PREFIX"):
                lines.append(f"IF {offset} {cond.kind} {cond.values[0]}")
            else:
                lines.append(f"IF {offset} {cond.kind}")
        lines.append(f"THEN {rule.action} {','.join(rule.patterns)}")
        lines.append("END")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _visits(cascade: RuleCascade, sentence: Sentence) -> list[int]:
    """Indices, ascending, of the rules the sentence can match: those one of
    its surfaces names and those without a SURFACE-IN condition."""
    by_surface = cascade._by_surface
    visit = set(cascade._always)
    for tok in sentence.tokens:
        hit = by_surface.get(tok.surface)
        if hit is not None:
            visit.update(hit)
    return sorted(visit)


def _sweep(cascade: RuleCascade, sentence: Sentence, sets: list[set[str]], visit=None):
    """Yield (rule, position) wherever the rule matches: rules in cascade
    order, positions ascending.  Set-dependent conditions are tested against
    `sets` as the caller leaves them after the previous yield.  `visit` is
    the sentence's `_visits`, when the caller has it."""
    if visit is None:
        visit = _visits(cascade, sentence)
    if not visit:
        return
    tokens = sentence.tokens
    n = len(tokens)
    where: dict[str, list[int]] = {}
    for i, tok in enumerate(tokens):
        where.setdefault(tok.surface, []).append(i)
    rules = cascade.rules
    for k in visit:
        rule = rules[k]
        picked = None  # positions where every static condition holds; None: all
        dynamic = []
        for c in rule.conditions:
            if c.kind == "SURFACE-IN":
                at = {i - c.offset for v in c.values for i in where.get(v, ())}
            elif c.kind == "SENT-INITIAL":
                at = {-c.offset}
            elif c.kind == "SENT-FINAL":
                at = {n - 1 - c.offset}
            else:
                dynamic.append(c)
                continue
            picked = at if picked is None else picked & at
        if picked is None:
            positions = range(n)
        elif not picked:
            continue
        else:
            positions = sorted(p for p in picked if 0 <= p < n)
        for p in positions:
            if all(c.holds(sentence, p, sets) for c in dynamic):
                yield rule, p


def apply_cascade(cascade: RuleCascade, sentence: Sentence,
                  candidates: list[set[str]]) -> list[set[str]]:
    """Filter per-token candidate sets through the cascade.

    Returns a new list.  Output sets are subsets of the inputs and never
    empty; where no rule changed a set, the output holds the input object
    itself.  No input set is mutated, and no output set should be.
    """
    sets = list(candidates)
    for i, cands in enumerate(sets):
        if not cands:
            raise ValueError(f"empty candidate set at position {i}")
    for rule, i in _sweep(cascade, sentence, sets):
        filtered = rule.filtered(sets[i])
        if filtered:
            sets[i] = filtered
    return sets


def audit_precision(cascade: RuleCascade, corpus: Corpus, lexicon) -> dict[str, tuple[int, int]]:
    """Per-rule (fired_count, removed_gold_count) on a gold-tagged corpus.

    A cascade is safe on the corpus iff every removed_gold_count is 0.
    Firing means the rule matched and actually changed a candidate set.
    """
    report = {rule.rule_id: [0, 0] for rule in cascade}
    for sent in corpus:
        visit = _visits(cascade, sent)
        if not visit:
            continue
        sets = lexicon_sets(lexicon, sent)
        for rule, i in _sweep(cascade, sent, sets, visit):
            filtered = rule.filtered(sets[i])
            if filtered and filtered != sets[i]:
                report[rule.rule_id][0] += 1
                gold = sent.tokens[i].gold_tag
                if gold in sets[i] and gold not in filtered:
                    report[rule.rule_id][1] += 1
                sets[i] = filtered
    return {rid: (fired, removed) for rid, (fired, removed) in report.items()}
