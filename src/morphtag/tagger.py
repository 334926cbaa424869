"""Guided-learning tagger: easiest-first bidirectional beam search with a
passive-aggressive averaged perceptron.

One search core serves decoding and training.  Each step scores every
(untagged position, candidate tag) action given the neighbour tags already
committed, and commits the single highest-scoring action anywhere in the
sentence, growing tagged spans from both directions.  Each span keeps up to
B hypotheses; a hypothesis' accumulated score is the sum of the action
scores that built it.  Context tags are only visible through a contiguous
run of committed positions (offset -2 counts only when -1 is committed
too), which keeps every hypothesis' score exactly replayable from its
commit order.  It also means a commit is seen only by the two untagged
positions just outside the new span: the search caches every other
position's best action and score vectors, and rescores only those two.

Ties are broken the same way everywhere: a position's best tag is the
lowest tag id among its highest scores, the earliest position wins among
equal best actions, and a span keeps its hypotheses ordered by
(-score, tags).  A position whose candidates are the full inventory (every
token under `all` candidates, out-of-lexicon tokens under `lexicon`) is
searched with whole-row numpy operations: one argmax finds its best tag,
and a commit keeps only each hypothesis pair's top B tags by (-score, tag
id) before the merge sort, which is exact because the hypotheses of one
pair share their outer tags.  Shorter candidate lists keep per-tag Python
loops, which are faster for the one to three tags a lexicon usually gives.

A callback decides each commit.  Decoding records a trace step and keeps
every candidate tag.  Training is beam-1: it commits the gold tag when the
best action is gold, or once the sentence has spent its update budget;
otherwise a passive-aggressive update promotes the gold action and demotes
the predicted one with step size
tau = min(C, (margin + s_pred - s_gold) / ||delta features||^2), and the
step is repeated with every position rescored.  Raw weights drive
training; decoding uses the averaged weights.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence, read_text
from .errors import ConfigError, DataError
from .features import FeatureConfig, suggested_tags, tag_features, word_features
from .lexicon import Lexicon
from .rules import RuleCascade, apply_cascade
from .tagset import TagInventory

CANDIDATE_SOURCES = ("all", "lexicon", "lexicon+rules")


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 5
    seed: int = 0
    aggressiveness: float = 1.0  # PA cap C
    margin: float = 1.0
    candidate_source: str = "all"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.aggressiveness <= 0:
            raise ConfigError("aggressiveness cap C must be > 0")
        if self.margin <= 0:
            raise ConfigError("margin must be > 0")
        if self.candidate_source not in CANDIDATE_SOURCES:
            raise ConfigError(f"unknown candidate_source {self.candidate_source!r}")


@dataclass(frozen=True)
class DecodeOptions:
    beam_size: int = 1
    candidate_source: str = "all"
    hard_output_rules: RuleCascade | None = None

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if self.candidate_source not in CANDIDATE_SOURCES:
            raise ConfigError(f"unknown candidate_source {self.candidate_source!r}")


class Model:
    """Sparse linear weights over (feature, tag), raw and averaged."""

    FORMAT_VERSION = 1

    def __init__(self, inventory: TagInventory, cfg: FeatureConfig, meta=None):
        self.inventory = inventory
        self.cfg = cfg
        self.feature_ids: dict[str, int] = {}
        self.weights: dict[int, np.ndarray] = {}
        self.averaged: dict[int, np.ndarray] = {}
        self.meta: dict = meta or {}

    def intern(self, feature: str) -> int:
        fid = self.feature_ids.get(feature)
        if fid is None:
            fid = len(self.feature_ids)
            self.feature_ids[feature] = fid
        return fid

    def save(self, path):
        def sparse(table):
            out = {}
            for fid, row in table.items():
                # flatnonzero skips -0.0 too, so no zero weight is written.
                nz = np.flatnonzero(row)
                out[str(fid)] = dict(zip(map(str, nz.tolist()), row[nz].tolist()))
            return out
        payload = {
            "format": self.FORMAT_VERSION,
            "tags": self.inventory.tags,
            "features": self.feature_ids,
            "config": self.cfg.to_dict(),
            "weights": sparse(self.weights),
            "averaged": sparse(self.averaged),
            "meta": self.meta,
        }
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, ensure_ascii=False)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None

    # Top-level fields of a model file and their JSON types; "meta" may be absent.
    _FIELDS = {"tags": list, "features": dict, "config": dict, "weights": dict,
               "averaged": dict, "meta": dict}

    @classmethod
    def load(cls, path) -> "Model":
        try:
            payload = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: model is not JSON: {exc}") from None
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != cls.FORMAT_VERSION:
            raise DataError(f"{path}: unsupported model format {fmt!r}")
        payload.setdefault("meta", {})
        for key, kind in cls._FIELDS.items():
            if not isinstance(payload.get(key), kind):
                raise DataError(f"{path}: model field {key!r} is missing or not "
                                f"a JSON {'array' if kind is list else 'object'}")
        # Other bad content below the top level (a tag that is not a string,
        # an unknown config key, a weight that is not a number) surfaces as
        # one of these while the model is built.
        try:
            model = cls(TagInventory(payload["tags"]),
                        FeatureConfig.from_dict(payload["config"]), payload["meta"])
            model.feature_ids = {f: int(i) for f, i in payload["features"].items()}
            T = len(model.inventory)
            for name, table in (("weights", model.weights), ("averaged", model.averaged)):
                for fid, row in payload[name].items():
                    arr = np.zeros(T)
                    for tid, w in row.items():
                        t = int(tid)
                        if not 0 <= t < T:
                            raise DataError(f"{path}: feature {fid} has a weight for "
                                            f"tag id {t}, outside the {T} tags")
                        # numpy would store null or "nan" as NaN, which the
                        # search's argmax and its comparisons disagree on.
                        if not math.isfinite(w):
                            raise DataError(f"{path}: feature {fid} has the weight "
                                            f"{w!r} for tag id {t}")
                        arr[t] = w
                    table[int(fid)] = arr
        except (TypeError, ValueError, AttributeError, ConfigError) as exc:
            raise DataError(f"{path}: malformed model: {exc}") from None
        return model


# Candidate construction --------------------------------------------------

def _candidate_ids(sentence: Sentence, inventory: TagInventory,
                   lexicon: Lexicon | None, soft_rules: RuleCascade | None,
                   source: str, hard_rules: RuleCascade | None) -> list[list[int]]:
    """Per-token candidate tag ids.

    Hard output rules override the source: candidates become the
    cascade-filtered lexicon sets.  Out-of-lexicon tokens (and lexicon tags
    unknown to the inventory) fall back to the full inventory.
    """
    n = len(sentence.tokens)
    all_ids = list(range(len(inventory)))
    if hard_rules is not None and len(hard_rules) > 0:
        source = "lexicon+rules"
        soft_rules = hard_rules
    if source == "all" or lexicon is None:
        return [all_ids] * n
    full = set(inventory.tags)
    raw = [lexicon.tags(tok.surface) for tok in sentence.tokens]
    sets = [set(t) if t is not None else set(full) for t in raw]
    if source == "lexicon+rules" and soft_rules is not None and len(soft_rules) > 0:
        sets = apply_cascade(soft_rules, sentence, sets)
    out = []
    for tags in sets:
        ids = sorted(inventory.index[t] for t in tags if t in inventory.index)
        out.append(ids if ids else all_ids)
    return out


# Scoring -----------------------------------------------------------------

class _SentenceScorer:
    """Feature extraction + scoring for one sentence against one weight
    table.  Static (surface/lexicon) features are computed once per
    position; tag-context features per visible-context query."""

    def __init__(self, model: Model, words, table: dict[int, np.ndarray],
                 lexicon, soft_rules, grow: bool,
                 cfg: FeatureConfig | None = None):
        self.model = model
        self.words = words
        self.table = table
        self.grow = grow
        self.T = len(model.inventory)
        cfg = self.cfg = cfg if cfg is not None else model.cfg
        suggested = [None] * len(words)
        if cfg.use_lexicon_features and lexicon is not None:
            suggested = suggested_tags(words, lexicon, soft_rules, cfg,
                                       fallback=set(model.inventory.tags))
        self._static = [self._intern(word_features(words, i, cfg, suggested[i]))
                        for i in range(len(words))]

    def _intern(self, feats) -> list[int]:
        if self.grow:
            return [self.model.intern(f) for f in feats]
        ids = self.model.feature_ids
        return [fid for f in feats if (fid := ids.get(f)) is not None]

    def feature_ids(self, i: int, visible_ids: dict[int, int]) -> list[int]:
        visible = {j: self.model.inventory.tags[t] for j, t in visible_ids.items()}
        dynamic = tag_features(self.words, i, visible, self.cfg)
        return self._static[i] + self._intern(dynamic)

    def score_vector(self, fids) -> np.ndarray:
        vec = np.zeros(self.T)
        for fid in fids:
            row = self.table.get(fid)
            if row is not None:
                vec += row
        return vec

    def score(self, i: int, visible_ids: dict[int, int]) -> np.ndarray:
        return self.score_vector(self.feature_ids(i, visible_ids))


def _visible_context(p: int, assigned: dict[int, int]) -> dict[int, int]:
    """Neighbour tags visible through contiguous committed runs only."""
    vis = {}
    if p - 1 in assigned:
        vis[p - 1] = assigned[p - 1]
        if p - 2 in assigned:
            vis[p - 2] = assigned[p - 2]
    if p + 1 in assigned:
        vis[p + 1] = assigned[p + 1]
        if p + 2 in assigned:
            vis[p + 2] = assigned[p + 2]
    return vis


# Easiest-first search ----------------------------------------------------

@dataclass
class _Span:
    start: int
    end: int
    hyps: list  # [(score, tags tuple of ids)] sorted best-first


@dataclass
class TraceStep:
    position: int
    tag_id: int
    score: float  # local action score of the committed action
    available: dict  # position -> best local action score at that step


def _search(scorer: _SentenceScorer, cand_ids, beam: int, choose):
    """Easiest-first beam search; returns (tag ids, score, commit order).

    Each step finds the best action (p, c) over all untagged positions and
    calls choose(p, c, cache).  `cache` maps every untagged position to its
    entry: best score, best tag, the visible context and score vector that
    tag was scored with, and the score vector of every hypothesis pair.
    choose returns the tags the commit may keep at p, or None to rescore
    every position and repeat the step.
    """
    n = len(scorer.words)
    span_at: list[_Span | None] = [None] * n  # written at span edges only
    untagged = list(range(n))
    # p -> (best score, best tag, its visible context, its vector,
    #       [(lh, rh, vector)])
    cache: dict[int, tuple] = {}
    order: list[int] = []

    def entry(p):
        left = span_at[p - 1] if p > 0 else None
        right = span_at[p + 1] if p < n - 1 else None
        best, best_c, best_visible, best_vec = -np.inf, -1, None, None
        pairs = []
        # Candidate ids are sorted and unique, so a list of length T is the
        # full inventory, and argmax (which returns the first maximum, as
        # the loop's strict > keeps it) replaces the loop.
        ids = cand_ids[p]
        full = len(ids) == scorer.T
        for lh in (left.hyps if left else [None]):
            for rh in (right.hyps if right else [None]):
                visible = {}
                if lh is not None:
                    visible[p - 1] = lh[1][-1]
                    if p - 2 >= left.start:
                        visible[p - 2] = lh[1][-2]
                if rh is not None:
                    visible[p + 1] = rh[1][0]
                    if p + 2 <= right.end:
                        visible[p + 2] = rh[1][1]
                vec = scorer.score(p, visible)
                pairs.append((lh, rh, vec))
                for c in (int(vec.argmax()),) if full else ids:
                    if vec[c] > best:
                        best, best_c = float(vec[c]), c
                        best_visible, best_vec = visible, vec
        return best, best_c, best_visible, best_vec, pairs

    while untagged:
        p, top = None, (-np.inf,)
        for q in untagged:
            e = cache.get(q)
            if e is None:
                e = cache[q] = entry(q)
            if e[0] > top[0]:
                p, top = q, e
        keep = choose(p, top[1], cache)
        if keep is None:
            cache.clear()
            continue
        # Commit: merge the adjacent spans through p from the cached vectors.
        # A pair's hypotheses share their outer tags, so over the full
        # inventory only each pair's top `beam` tags by (-score, tag id) can
        # survive the cut.
        merged = []
        for lh, rh, vec in top[4]:
            base = (lh[0] if lh else 0.0) + (rh[0] if rh else 0.0)
            ltags = lh[1] if lh else ()
            rtags = rh[1] if rh else ()
            if len(keep) == scorer.T:
                scores = base + vec  # the same float sums as the loop below
                if beam == 1:
                    best = [int(scores.argmax())]
                else:
                    best = np.argsort(-scores, kind="stable")[:beam].tolist()
                for c in best:
                    merged.append((float(scores[c]), ltags + (c,) + rtags))
            else:
                for c in keep:
                    merged.append((base + float(vec[c]), ltags + (c,) + rtags))
        merged.sort(key=lambda h: (-h[0], h[1]))
        left = span_at[p - 1] if p > 0 else None
        right = span_at[p + 1] if p < n - 1 else None
        span = _Span(left.start if left else p, right.end if right else p,
                     merged[:beam])
        span_at[span.start] = span_at[span.end] = span
        untagged.remove(p)
        order.append(p)
        # Context is seen only through a contiguous committed run, so only
        # the positions next to the span can see it.  They are rescored even
        # at beam 1: their cached pairs hold the span's old hypotheses.
        for q in (p, span.start - 1, span.end + 1):
            cache.pop(q, None)
    final = span_at[0]
    assert final is not None and final.start == 0 and final.end == n - 1
    score, tags = final.hyps[0]
    return list(tags), float(score), order


def decode(sentence: Sentence, model: Model, lexicon: Lexicon | None = None,
           rules: RuleCascade | None = None,
           dopts: DecodeOptions = DecodeOptions(),
           cfg: FeatureConfig | None = None):
    """Tag one sentence with the averaged weights; returns (tags, score)."""
    tags, score, _, _ = decode_with_trace(sentence, model, lexicon, rules, dopts, cfg)
    return tags, score


def decode_with_trace(sentence: Sentence, model: Model,
                      lexicon: Lexicon | None = None,
                      rules: RuleCascade | None = None,
                      dopts: DecodeOptions = DecodeOptions(),
                      cfg: FeatureConfig | None = None):
    """decode() plus the per-step trace and commit order, for audits.

    `cfg` overrides the model's feature config at decode time (used for
    test-only rule filtering of the lexicon features)."""
    words = [tok.surface for tok in sentence.tokens]
    cand_ids = _candidate_ids(sentence, model.inventory, lexicon, rules,
                              dopts.candidate_source, dopts.hard_output_rules)
    scorer = _SentenceScorer(model, words, model.averaged, lexicon, rules,
                             grow=False, cfg=cfg)
    trace: list[TraceStep] = []

    def choose(p, c, cache):
        trace.append(TraceStep(p, c, cache[p][0],
                               {q: cache[q][0] for q in sorted(cache)}))
        return cand_ids[p]

    ids, score, order = _search(scorer, cand_ids, dopts.beam_size, choose)
    return [model.inventory.tags[t] for t in ids], score, trace, order


def rescore(sentence: Sentence, tags, commit_order, model: Model,
            lexicon: Lexicon | None = None,
            rules: RuleCascade | None = None,
            cfg: FeatureConfig | None = None) -> float:
    """Replay a commit order over a fixed assignment, summing action scores.

    Replaying decode's own commit order and output tags reproduces its
    reported score (up to float association)."""
    n = len(sentence.tokens)
    if sorted(commit_order) != list(range(n)):
        raise ValueError("commit_order is not a permutation of positions")
    if len(tags) != n:
        raise ValueError("tags/sentence length mismatch")
    words = [tok.surface for tok in sentence.tokens]
    scorer = _SentenceScorer(model, words, model.averaged, lexicon, rules,
                             grow=False, cfg=cfg)
    tag_ids = [model.inventory.id(t) for t in tags]
    assigned: dict[int, int] = {}
    total = 0.0
    for p in commit_order:
        vec = scorer.score(p, _visible_context(p, assigned))
        total += float(vec[tag_ids[p]])
        assigned[p] = tag_ids[p]
    return total


# Training ----------------------------------------------------------------

@dataclass
class UpdateRecord:
    """One passive-aggressive update, for post-condition audits."""

    position: int
    gold_id: int
    predicted_id: int
    tau: float
    capped: bool
    margin_after: float


class _AveragedAccumulator:
    """Running sum of post-update weight snapshots, maintained lazily."""

    def __init__(self, T: int):
        self.T = T
        self.acc: dict[int, np.ndarray] = {}
        self.last: dict[int, int] = {}
        self.k = 0  # number of updates so far

    def touch(self, fid: int, row: np.ndarray):
        """Credit pending snapshots for fid before it changes in update k+1."""
        pending = self.k - self.last.get(fid, 0)
        if pending:
            acc = self.acc.get(fid)
            if acc is None:
                acc = self.acc[fid] = np.zeros(self.T)
            acc += row * pending
        self.last[fid] = self.k

    def finalize(self, weights: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        if self.k == 0:
            return {}
        out = {}
        for fid, row in weights.items():
            acc = self.acc.get(fid, np.zeros(self.T)).copy()
            acc += row * (self.k - self.last.get(fid, 0))
            out[fid] = acc / self.k
        return out


def train(corpus: Corpus, lexicon: Lexicon | None = None,
          rules: RuleCascade | None = None,
          topts: TrainOptions = TrainOptions(),
          cfg: FeatureConfig = FeatureConfig(),
          inventory: TagInventory | None = None,
          update_log: list | None = None):
    """Train a model; returns (model, per-epoch training accuracies).

    The inventory defaults to all tags in the corpus plus all lexicon tags,
    sorted.  Pass `update_log` to capture every PA update for audits.
    """
    if not corpus.sentences:
        raise ConfigError("cannot train on an empty corpus")
    for tok in corpus.tokens():
        if tok.gold_tag is None:
            raise DataError(f"training token {tok.surface!r} has no gold tag")
    if inventory is None:
        tags = {tok.gold_tag for tok in corpus.tokens()}
        if lexicon is not None:
            tags |= lexicon.all_tags()
        inventory = TagInventory(sorted(tags))
    for tok in corpus.tokens():
        if tok.gold_tag not in inventory:
            raise DataError(f"gold tag {tok.gold_tag!r} missing from inventory")

    model = Model(inventory, cfg, meta={"epochs": topts.epochs, "seed": topts.seed,
                                        "candidate_source": topts.candidate_source})
    avg = _AveragedAccumulator(len(inventory))
    C, margin = topts.aggressiveness, topts.margin
    epoch_accuracy = []

    # Candidate sets and gold ids are fixed across epochs.  Each sentence's
    # scorer is built in the first epoch, in corpus order (which fixes the
    # feature ids), and reused after that.
    sent_cands, sent_gold = [], []
    for sent in corpus:
        cands = _candidate_ids(sent, inventory, lexicon, rules,
                               topts.candidate_source, None)
        gold = [inventory.id(tok.gold_tag) for tok in sent.tokens]
        for tok, g, ids in zip(sent.tokens, gold, cands):
            if g not in ids:
                raise DataError(
                    f"gold tag {tok.gold_tag!r} of token {tok.surface!r} is not "
                    f"among its candidates under source {topts.candidate_source!r}")
        sent_cands.append(cands)
        sent_gold.append(gold)
    scorers: list[_SentenceScorer | None] = [None] * len(corpus.sentences)

    for _ in range(topts.epochs):
        total_tokens = 0
        clean_tokens = 0
        for i, sent in enumerate(corpus.sentences):
            gold = sent_gold[i]
            scorer = scorers[i]
            if scorer is None:
                scorer = scorers[i] = _SentenceScorer(model, sent.surfaces(), model.weights,
                                                      lexicon, rules, grow=True)
            dirty: set[int] = set()  # positions that triggered an update
            guard = 0
            guard_limit = 50 + 10 * len(gold)

            def choose(p, c, cache):
                nonlocal guard
                if c == gold[p] or guard > guard_limit:
                    return (gold[p],)
                # Passive-aggressive update on the violating action.
                dirty.add(p)
                guard += 1
                _, _, visible, vec, _ = cache[p]
                fids = scorer.feature_ids(p, visible)
                s_pred, s_gold = float(vec[c]), float(vec[gold[p]])
                denom = 2.0 * len(fids)
                tau = min(C, (margin + s_pred - s_gold) / denom)
                for fid in set(fids):
                    row = model.weights.get(fid)
                    if row is None:
                        row = model.weights[fid] = np.zeros(len(inventory))
                    avg.touch(fid, row)
                for fid, m in Counter(fids).items():
                    row = model.weights[fid]
                    row[gold[p]] += tau * m
                    row[c] -= tau * m
                avg.k += 1
                if update_log is not None:
                    vec2 = scorer.score_vector(fids)
                    update_log.append(UpdateRecord(
                        p, gold[p], c, tau, tau >= C,
                        float(vec2[gold[p]] - vec2[c])))
                return None

            _search(scorer, sent_cands[i], 1, choose)
            total_tokens += len(gold)
            clean_tokens += len(gold) - len(dirty)
        epoch_accuracy.append(clean_tokens / total_tokens)

    model.averaged = avg.finalize(model.weights)
    model.meta["updates"] = avg.k
    model.meta["epoch_accuracy"] = epoch_accuracy
    return model, epoch_accuracy
