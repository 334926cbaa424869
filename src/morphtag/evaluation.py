"""Accuracy metrics, confusion pairs, lexicon audits, and significance
testing."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .corpus import Corpus
from .lexicon import Lexicon
from .tagset import project


@dataclass
class EvalReport:
    token_accuracy: float
    sentence_accuracy: float
    unknown_token_accuracy: float
    token_count: int
    unknown_token_count: int
    confusion_pairs: list[tuple[str, str, int]] = field(default_factory=list)
    projected_accuracy: dict[int, float] = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _walk(gold: Corpus, predicted):
    """Each gold sentence's (token, predicted tag) pairs, after checking
    there is one tag sequence per sentence, of its length, and a gold tag on
    every token."""
    if len(predicted) != len(gold.sentences):
        raise ValueError(f"{len(gold.sentences)} gold sentences but "
                         f"{len(predicted)} predicted sequences")
    for sent, tags in zip(gold.sentences, predicted):
        if len(tags) != len(sent.tokens):
            raise ValueError("sentence length mismatch")
        for tok in sent.tokens:
            if tok.gold_tag is None:
                raise ValueError(f"token {tok.surface!r} has no gold tag")
        yield zip(sent.tokens, tags)


def _top_errors(errors: dict[tuple[str, str], int], k: int):
    """Top-k (gold, predicted, count), count-descending with lexicographic
    tie-break."""
    return sorted(((g, p, c) for (g, p), c in errors.items()),
                  key=lambda x: (-x[2], x[0], x[1]))[:k]


def evaluate(gold: Corpus, predicted, training_vocabulary=frozenset(),
             depths=(1, 2), confusion_k: int = 20) -> EvalReport:
    """Token/sentence/unknown accuracy plus confusion pairs and projected
    accuracies.  `predicted` is one tag sequence per gold sentence;
    untaggable markers count as wrong."""
    total = 0
    correct = 0
    unk_total = 0
    unk_correct = 0
    sent_correct = 0
    proj_correct = {d: 0 for d in depths}
    errors: dict[tuple[str, str], int] = {}
    for pairs in _walk(gold, predicted):
        all_ok = True
        for tok, tag in pairs:
            total += 1
            unknown = tok.surface not in training_vocabulary
            if unknown:
                unk_total += 1
            if tag == tok.gold_tag:
                correct += 1
                if unknown:
                    unk_correct += 1
            else:
                all_ok = False
                key = (tok.gold_tag, tag)
                errors[key] = errors.get(key, 0) + 1
            for d in depths:
                if project(tok.gold_tag, d) == project(tag, d):
                    proj_correct[d] += 1
        if all_ok:
            sent_correct += 1
    n_sents = len(gold.sentences)
    return EvalReport(
        token_accuracy=correct / total if total else 1.0,
        sentence_accuracy=sent_correct / n_sents if n_sents else 1.0,
        unknown_token_accuracy=unk_correct / unk_total if unk_total else 1.0,
        token_count=total,
        unknown_token_count=unk_total,
        confusion_pairs=_top_errors(errors, confusion_k),
        projected_accuracy={d: (proj_correct[d] / total if total else 1.0)
                            for d in depths},
    )


def confusion_pairs(gold: Corpus, predicted, k: int = 20):
    """Top-k (gold, predicted, count) error pairs, count-descending with
    lexicographic tie-break."""
    errors: dict[tuple[str, str], int] = {}
    for pairs in _walk(gold, predicted):
        for tok, tag in pairs:
            if tag != tok.gold_tag:
                key = (tok.gold_tag, tag)
                errors[key] = errors.get(key, 0) + 1
    return _top_errors(errors, k)


def chi_squared(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Pearson chi-squared on a 2x2 table [[a, b], [c, d]] without continuity
    correction; p-value for 1 df via the complementary error function."""
    if min(a, b, c, d) < 0:
        raise ValueError("negative cell count")
    n = a + b + c + d
    if n == 0:
        raise ValueError("empty contingency table")
    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    if 0 in (row1, row2, col1, col2):
        raise ValueError("zero marginal")
    statistic = 0.0
    for observed, row, col in ((a, row1, col1), (b, row1, col2),
                               (c, row2, col1), (d, row2, col2)):
        expected = row * col / n
        statistic += (observed - expected) ** 2 / expected
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return statistic, p_value


def audit_lexicon_exhaustiveness(corpus: Corpus, lexicon: Lexicon):
    """Tokens whose gold tag is not among their lexicon tags, as
    (surface, gold_tag) pairs; empty iff the lexicon is exhaustive."""
    violations = []
    for tok in corpus.tokens():
        tags = lexicon.tags(tok.surface)
        if tags is None or tok.gold_tag not in tags:
            violations.append((tok.surface, tok.gold_tag))
    return violations
