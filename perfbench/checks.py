"""Correctness checks computed apart from the program.

Each check recomputes, from the generated input text and the benchmark's
own counting, a property the method must have; none compares against a
stored copy of earlier output.  `Checks` records every check that ran and
every one that failed, so a run can report both.
"""

from __future__ import annotations

from collections import Counter

SCORE_TOLERANCE = 1e-9


class Checks:
    def __init__(self):
        self.ran: Counter = Counter()
        self.failures: list[str] = []

    def expect(self, kind: str, ok: bool, detail: str = ""):
        self.ran[kind] += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{kind}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.failures


# Independent readers of the generated text -------------------------------

def read_sentences(text: str) -> list[list[tuple[str, str]]]:
    """Vertical corpus text as lists of (surface, tag)."""
    sents, cur = [], []
    for line in text.split("\n"):
        if not line:
            if cur:
                sents.append(cur)
                cur = []
            continue
        surface, tag = line.split("\t")
        cur.append((surface, tag))
    if cur:
        sents.append(cur)
    return sents


def read_lexicon(text: str) -> dict[str, dict[str, str | None]]:
    """Lexicon text as surface -> {tag: lemma or None}."""
    out: dict[str, dict[str, str | None]] = {}
    for line in text.split("\n"):
        if line:
            fields = line.split("\t")
            lemma = fields[2] if len(fields) == 3 else None
            out.setdefault(fields[0], {})[fields[1]] = lemma
    return out


def read_retain_rules(text: str) -> list[tuple[frozenset[str], tuple[str, ...]]]:
    """A cascade of single-condition `IF 0 SURFACE-IN ... / THEN RETAIN ...`
    rules as (surfaces, retained prefixes), in cascade order.  Any other rule
    shape is refused, since the candidate check below models only this one."""
    rules = []
    surfaces = patterns = None
    for line in text.split("\n"):
        parts = line.split()
        if not parts or parts[0] == "RULE":
            continue
        if parts[:3] == ["IF", "0", "SURFACE-IN"]:
            surfaces = frozenset(w for w in parts[3].split(",") if w)
        elif parts[:2] == ["THEN", "RETAIN"]:
            patterns = tuple(p for p in parts[2].split(",") if p)
        elif parts[0] == "END":
            rules.append((surfaces, patterns))
            surfaces = patterns = None
        else:
            raise ValueError(f"rule line outside the SURFACE-IN/RETAIN subset: {line!r}")
    return rules


def candidate_sets(words, lexicon, retain_rules, inventory) -> list[set[str]]:
    """Per-token candidates: lexicon tags narrowed by the RETAIN rules that
    name the surface (a rule that would empty the set does not fire);
    surfaces outside the lexicon may take any inventory tag."""
    out = []
    for w in words:
        tags = lexicon.get(w)
        if tags is None:
            out.append(inventory)
            continue
        cands = set(tags)
        for surfaces, patterns in retain_rules:
            if w in surfaces:
                kept = {t for t in cands if t.startswith(patterns)}
                if kept:
                    cands = kept
        out.append(cands)
    return out


# Tagger ------------------------------------------------------------------

def check_decode(checks: Checks, beam: int, outputs, sentences, cand_sets):
    """outputs: per sentence (tags, score, trace, order, rescored)."""
    for (tags, score, trace, order, rescored), sent, cands in zip(outputs, sentences, cand_sets):
        checks.expect("score-equals-rescore",
                      abs(score - rescored) <= SCORE_TOLERANCE * max(1.0, abs(score)),
                      f"beam {beam}: decode {score!r} vs rescore {rescored!r}")
        checks.expect("order-is-permutation", sorted(order) == list(range(len(sent))),
                      f"beam {beam}: {order}")
        for tag, allowed in zip(tags, cands):
            checks.expect("tag-in-candidates", tag in allowed,
                          f"beam {beam}: {tag!r} not among {len(allowed)} candidates")
        if beam == 1:
            for step in trace:
                best = max(step.available.values())
                checks.expect("beam1-commits-max",
                              step.score == best and step.available[step.position] == best,
                              f"committed {step.score!r}, best available {best!r}")


def check_reload(checks: Checks, beam: int, loaded_outputs, memory_outputs):
    for a, b in zip(loaded_outputs, memory_outputs):
        checks.expect("reload-same-output", a[0] == b[0] and a[1] == b[1],
                      f"beam {beam}: loaded {a[1]!r} vs in-memory {b[1]!r}")


# Baselines ---------------------------------------------------------------

def _argmax_set(counts: Counter) -> set[str]:
    top = max(counts.values())
    return {t for t, c in counts.items() if c == top}


def check_mft(checks: Checks, train, test, lexicon, predictions, default_tag, guesser_rules):
    """predictions: strategy -> per-sentence tag lists, for mft-fail,
    mft-default, mft-guesser and mft-lexicon."""
    by_surface: dict[str, Counter] = {}
    by_class: dict[str, Counter] = {}
    for sent in train:
        for surface, tag in sent:
            by_surface.setdefault(surface, Counter())[tag] += 1
            if surface in lexicon:
                key = ";".join(sorted(lexicon[surface]))
                by_class.setdefault(key, Counter())[tag] += 1
    train_tags = {t for c in by_surface.values() for t in c}

    def guess(surface):
        for suffix, tag in guesser_rules:
            if surface.endswith(suffix):
                return tag
        return default_tag

    for strategy, preds in predictions.items():
        for sent, tags in zip(test, preds):
            for (surface, _), tag in zip(sent, tags):
                counts = by_surface.get(surface)
                if strategy != "mft-lexicon":
                    if counts:
                        allowed = _argmax_set(counts)
                    else:
                        allowed = {"mft-fail": {"<UNTAGGABLE>"},
                                   "mft-default": {default_tag},
                                   "mft-guesser": {guess(surface)}}[strategy]
                else:
                    best = _argmax_set(counts) if counts else set()
                    if len(best) == 1:
                        allowed = best
                    elif surface not in lexicon:
                        allowed = train_tags
                    else:
                        klass = set(lexicon[surface])
                        cbest = by_class.get(";".join(sorted(klass)))
                        cbest = _argmax_set(cbest) if cbest else set()
                        allowed = cbest if len(cbest) == 1 else klass
                checks.expect("mft-matches-recount", tag in allowed,
                              f"{strategy}: {surface!r} -> {tag!r}, expected one of "
                              f"{sorted(allowed)[:5]}")


# Evaluation and audits ---------------------------------------------------

def check_evaluate(checks: Checks, report, test, predicted, train_vocab, depths, k):
    total = correct = unk = unk_ok = sent_ok = 0
    proj = {d: 0 for d in depths}
    errors: Counter = Counter()
    for sent, tags in zip(test, predicted):
        all_ok = True
        for (surface, gold), tag in zip(sent, tags):
            total += 1
            known = surface in train_vocab
            unk += not known
            if tag == gold:
                correct += 1
                unk_ok += not known
            else:
                all_ok = False
                errors[(gold, tag)] += 1
            for d in depths:
                proj[d] += gold[:d] == tag[:d]
        sent_ok += all_ok
    pairs = sorted(((g, p, c) for (g, p), c in errors.items()),
                   key=lambda x: (-x[2], x[0], x[1]))[:k]
    expected = {
        "token_accuracy": correct / total,
        "sentence_accuracy": sent_ok / len(test),
        "unknown_token_accuracy": unk_ok / unk if unk else 1.0,
        "token_count": total,
        "unknown_token_count": unk,
        "confusion_pairs": pairs,
        "projected_accuracy": {d: proj[d] / total for d in depths},
    }
    got = report.to_dict()
    for key, value in expected.items():
        checks.expect("evaluate-matches-recount", got[key] == value,
                      f"{key}: {got[key]!r} vs {value!r}")
    return pairs


def check_confusion(checks: Checks, pairs, expected_pairs):
    checks.expect("confusion-matches-recount", [tuple(p) for p in pairs] == expected_pairs,
                  f"{pairs[:3]} vs {expected_pairs[:3]}")


def check_ambiguity(checks: Checks, result, corpus, lexicon, punct_class="U"):
    n = ambiguous = total = 0
    for sent in corpus:
        for surface, gold in sent:
            if gold.startswith(punct_class):
                continue
            k = len(lexicon[surface]) if surface in lexicon else 1
            n += 1
            total += k
            ambiguous += k > 1
    expected = (ambiguous / n, total / n) if n else (0.0, 1.0)
    checks.expect("ambiguity-matches-recount", tuple(result) == expected,
                  f"{result!r} vs {expected!r}")


def check_exhaustive(checks: Checks, violations, corpus, lexicon):
    expected = [(s, t) for sent in corpus for s, t in sent
                if t not in lexicon.get(s, ())]
    checks.expect("exhaustive-matches-recount", list(violations) == expected,
                  f"{len(violations)} vs {len(expected)} violations")


def check_rule_audit(checks: Checks, report, rule_count):
    """Rules derived from a corpus are safe on it: none removes a gold tag."""
    checks.expect("audit-covers-rules", len(report) == rule_count,
                  f"{len(report)} of {rule_count} rules reported")
    for rule_id, (_, removed_gold) in report.items():
        checks.expect("derived-rules-safe", removed_gold == 0,
                      f"{rule_id} removed {removed_gold} gold tags")


def check_lemmas(checks: Checks, produced, readings):
    """readings: (surface, tag, stored lemma) triples."""
    for got, (surface, tag, lemma) in zip(produced, readings):
        checks.expect("lemma-round-trip", got == lemma,
                      f"({surface!r}, {tag!r}) -> {got!r}, stored {lemma!r}")
    checks.expect("lemma-count", len(produced) == len(readings),
                  f"{len(produced)} vs {len(readings)}")
