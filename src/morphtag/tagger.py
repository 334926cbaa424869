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
position's best action and score vectors, and rescores only those two.  A
score vector is the sum of the position's static (surface and lexicon)
weight rows, built once per search, plus the rows of its tag-context
features.

Ties are broken the same way everywhere: a position's best tag is the
lowest tag id among its highest scores, the earliest position wins among
equal best actions, and a span keeps its hypotheses ordered by
(-score, tags).  A position whose candidates are the full inventory (every
token under `all` candidates, out-of-lexicon tokens under `lexicon`) is
searched with whole-row numpy operations: one argmax finds its best tag,
and a commit keeps only each hypothesis pair's top B tags by (-score, tag
id) before the merge sort, which is exact because the hypotheses of one
pair share their outer tags.  The commit finds them without sorting: B
argmax picks over a fresh array of the pair's sums, each picked cell set to
-inf before the next pick.  A pick that is not finite (a sum that
overflowed) falls back to a stable argsort of the pair's sums.  Shorter
candidate lists keep per-tag Python loops, which are faster for the one to
three tags a lexicon usually gives.

A callback decides each commit.  Decoding keeps every candidate tag, and
`decode_with_trace` also records a trace step.  Training is beam-1: it
commits the gold tag when the best action is gold, or once the sentence has
spent its update budget; otherwise a passive-aggressive update promotes the
gold action and demotes the predicted one with step size
tau = min(C, (margin + s_pred - s_gold) / ||delta features||^2), and the
step is repeated.  The update changes only the gold and predicted columns of
the raw weights, so before the repeat those two columns of every cached
static sum and score vector are summed again, over the same rows in the same
order, and each position's best tag is re-derived: the cache ends exactly as
a full rescore would leave it.  Raw weights, dense rows, drive training;
decoding uses their average over all updates, which `_AveragedAccumulator`
keeps per cell and emits as a `SparseTable`: the compressed sparse rows the
model file stores, which a loaded model keeps as they are read.  No dense
table of the averaged rows is built: decoding sums a sentence's static rows
with one bincount and adds tag-context rows dense, memoised on the table.

The lexicon is read in one pass per sentence, which training, decoding and
`rescore` share.  It looks each token up once, runs each rule cascade it
needs once (the candidate cascade and the lexicon-feature cascade are
usually the same object), and gives both the candidate tag ids and the
suggested tag sets of the lexicon features.  An out-of-lexicon token enters
the cascade as the full inventory and suggests no tags.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sentence, read_text, write_text
from .errors import ConfigError, DataError
from .features import FeatureConfig, suggested_tags, tag_features, word_features
from .lexicon import Lexicon
from .rules import RuleCascade, apply_cascade
from .tagset import TagInventory

CANDIDATE_SOURCES = ("all", "lexicon", "lexicon+rules")


@dataclass(frozen=True)
class TrainOptions:
    """Training settings.  `seed` is only recorded in `model.meta`: training
    visits the corpus in order and draws nothing at random."""

    epochs: int = 5
    seed: int = 0
    aggressiveness: float = 1.0  # PA cap C
    margin: float = 1.0
    candidate_source: str = "all"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # Written so that NaN fails: every comparison with NaN is false.
        # C = inf (uncapped steps) is allowed.
        if not self.aggressiveness > 0:
            raise ConfigError(f"aggressiveness cap C must be > 0, not {self.aggressiveness}")
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and > 0, not {self.margin}")
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
    """Sparse linear weights over (feature, tag): the raw weights that
    training updates, a dict of dense rows, and their average, which
    decoding reads, a `SparseTable`.

    The file (format 5) is one UTF-8 JSON object holding only what decoding
    reads: `tags`, `config` (the two `FeatureConfig` fields), `meta` and the
    averaged table as compressed sparse rows.  Row r belongs to the feature
    string `features[r]` and holds the cells `offsets[r]:offsets[r + 1]` of
    the flat integer array `tag_ids`, strictly ascending within the row, and
    of `values`.  `values` is one ASCII string, the base64 of the cells as
    little-endian float64, so the bits read back exactly without printing or
    parsing float text.  Only nonzero cells are written, and only features
    with one.  A loaded model interns `features[r]` as id r, keeps the
    file's arrays as its averaged table and has no raw weights; no dense
    table is built.  Decoding gives the same bits either way: it looks rows
    up by feature string, and an absent feature, an absent row and a zero
    cell all add nothing to a score vector that starts at +0.0."""

    FORMAT_VERSION = 5

    def __init__(self, inventory: TagInventory, cfg: FeatureConfig, meta=None):
        self.inventory = inventory
        self.cfg = cfg
        self.feature_ids: dict[str, int] = {}
        self.weights: dict[int, np.ndarray] = {}
        self.averaged = SparseTable(len(inventory))
        self.meta: dict = meta or {}

    def intern(self, feature: str) -> int:
        fid = self.feature_ids.get(feature)
        if fid is None:
            fid = len(self.feature_ids)
            self.feature_ids[feature] = fid
        return fid

    def save(self, path):
        table = self.averaged
        names = list(self.feature_ids)  # in fid order: intern numbers features 0, 1, ...
        # -0.0 == 0.0, so no zero cell is written.
        keep = table.cells != 0.0
        counts = np.bincount(table.cell_rows()[keep], minlength=len(table))
        rows = counts.nonzero()[0]
        features = [names[fid] for fid in table.fids[rows].tolist()]
        offsets = [0] + np.cumsum(counts[rows]).tolist()
        tag_ids = table.tag_ids[keep].tolist()
        values = table.cells[keep].astype("<f8").tobytes()
        payload = {
            "format": self.FORMAT_VERSION,
            "tags": self.inventory.tags,
            "config": self.cfg.to_dict(),
            "meta": self.meta,
            "features": features,
            "offsets": offsets,
            "tag_ids": tag_ids,
            "values": base64.b64encode(values).decode("ascii"),
        }
        # json.dumps runs the C encoder; json.dump to a file does not.
        write_text(path, json.dumps(payload, ensure_ascii=False, separators=(",", ":")))

    # Top-level fields of a model file and their JSON types; "meta" may be absent.
    _FIELDS = {"tags": list, "config": dict, "meta": dict, "features": list,
               "offsets": list, "tag_ids": list, "values": str}
    _JSON_TYPES = {list: "array", dict: "object", str: "string"}

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
                                f"a JSON {cls._JSON_TYPES[kind]}")

        def malformed(problem):
            return DataError(f"{path}: malformed model: {problem}")
        # Element types are checked before TagInventory indexes a tag and
        # before numpy converts the arrays, which would read a true among
        # integers as 1.  type(), not isinstance: JSON true and false are
        # not numbers here.
        for key, types, kind in (("tags", {str}, "a string"), ("features", {str}, "a string"),
                                 ("offsets", {int}, "an integer"),
                                 ("tag_ids", {int}, "an integer")):
            if set(map(type, payload[key])) - types:
                raise malformed(f"an element of {key!r} is not {kind}")
        features = payload["features"]
        if len(set(features)) != len(features):
            raise malformed("a feature is repeated")
        # A bad tag or config (an invalid or repeated tag, an unknown config
        # key) surfaces as one of these while the model is built.
        try:
            model = cls(TagInventory(payload["tags"]),
                        FeatureConfig.from_dict(payload["config"]), payload["meta"])
        except (TypeError, ValueError, ConfigError) as exc:
            raise malformed(exc) from None
        R, T = len(features), len(model.inventory)
        # validate=True rejects every character outside the base64 alphabet;
        # text that is not ASCII raises ValueError too.
        try:
            raw = base64.b64decode(payload["values"], validate=True)
        except ValueError as exc:
            raise malformed(f"'values' is not base64: {exc}") from None
        if len(raw) % 8:
            raise malformed(f"'values' holds {len(raw)} bytes, not a multiple of 8")
        values = np.frombuffer(raw, dtype="<f8")
        try:  # the elements are integers, but may not fit in int64
            offsets = np.array(payload["offsets"], dtype=np.int64)
            tag_ids = np.array(payload["tag_ids"], dtype=np.int64)
        except OverflowError as exc:
            raise malformed(exc) from None
        if len(values) != len(tag_ids):
            raise malformed(f"'values' holds {len(values)} cells, not the "
                            f"{len(tag_ids)} of 'tag_ids'")
        if len(offsets) != R + 1:
            raise malformed(f"{R} features need {R + 1} offsets, not {len(offsets)}")
        if offsets[0] != 0 or offsets[-1] != len(values) or np.any(np.diff(offsets) < 0):
            raise malformed(f"offsets do not rise from 0 to the {len(values)} values")
        if np.any((tag_ids < 0) | (tag_ids >= T)):
            raise malformed(f"a tag id lies outside the {T} tags")
        table = SparseTable(T, np.arange(R), offsets, tag_ids, values)
        # A repeated tag id would be summed by SparseTable.sums but
        # overwritten in a dense row, so the two would disagree.
        if np.any((np.diff(tag_ids) <= 0) & (np.diff(table.cell_rows()) == 0)):
            raise malformed("the tag ids of a row do not strictly ascend")
        # numpy would store NaN, which the search's argmax and its
        # comparisons disagree on.
        if not np.all(np.isfinite(values)):
            raise malformed("a cell of 'values' is not finite")
        model.feature_ids = dict(zip(features, range(R)))
        model.averaged = table
        return model


class SparseTable(Mapping):
    """A table of float64 rows of T cells, as compressed sparse rows: row r
    belongs to feature id `fids[r]` and holds the cells
    `offsets[r]:offsets[r + 1]` of `tag_ids`, strictly ascending within the
    row, and of `cells`.  A cell that is not stored is +0.0.

    As a Mapping it reads feature id -> a fresh dense row, in row order, so
    writing to a row read from it changes nothing.  Decoding reads the
    arrays: `sums` adds up the rows of every position of a sentence at once,
    and `dense` memoises the dense rows that tag-context features add to a
    score vector.  No dense block of all the rows is ever built."""

    def __init__(self, T: int, fids=(), offsets=(0,), tag_ids=(), cells=()):
        self.T = T
        self.fids = np.asarray(fids, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.tag_ids = np.asarray(tag_ids, dtype=np.int64)
        self.cells = np.asarray(cells, dtype=np.float64)
        # fid -> row, or -1; the last entry answers every larger fid.
        self._row = np.full(int(self.fids.max(initial=-1)) + 2, -1, dtype=np.int64)
        self._row[self.fids] = np.arange(len(self.fids))
        self.dense = _DenseRows(self)

    def __getitem__(self, fid) -> np.ndarray:
        r = self._row[min(fid, len(self._row) - 1)] if fid >= 0 else -1
        if r < 0:
            raise KeyError(fid)
        start, end = self.offsets[r], self.offsets[r + 1]
        row = np.zeros(self.T)
        row[self.tag_ids[start:end]] = self.cells[start:end]
        return row

    def __iter__(self):
        return iter(self.fids.tolist())

    def __len__(self) -> int:
        return len(self.fids)

    def cell_rows(self) -> np.ndarray:
        """The row of each cell."""
        return np.repeat(np.arange(len(self.fids)), np.diff(self.offsets))

    def sums(self, fid_lists) -> np.ndarray:
        """An array whose row i is the sum of the rows of the feature ids
        `fid_lists[i]`, in list order; a fid without a row adds nothing.

        One np.bincount over the gathered cells, keyed i * T + tag, adds
        each bin's cells in input order from +0.0, so row i has the bits of
        adding the dense rows one by one to a vector of +0.0: a sum that
        starts at +0.0 never becomes -0.0, so a skipped zero cell changes
        nothing, and a row adds at most one cell to each bin."""
        n, T = len(fid_lists), self.T
        lengths = [len(fids) for fids in fid_lists]
        fids = np.fromiter(itertools.chain.from_iterable(fid_lists), np.int64, sum(lengths))
        rows = self._row[np.minimum(fids, len(self._row) - 1)]
        present = rows >= 0
        rows = rows[present]
        positions = np.repeat(np.arange(n), lengths)[present]
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        # The cell indices of each present row in turn.
        picked = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        keys = np.repeat(positions * T, counts) + self.tag_ids[picked]
        return np.bincount(keys, self.cells[picked], minlength=n * T).reshape(n, T)


class _DenseRows(dict):
    """fid -> a SparseTable's dense row, or None for a fid without one,
    built on first use.  Decoding adds these rows to score vectors and
    never writes to them."""

    def __init__(self, table: SparseTable):
        super().__init__()
        self.table = weakref.ref(table)  # the table holds this memo

    def __missing__(self, fid):
        row = self[fid] = self.table().get(fid)
        return row


# The lexicon and the rule cascade ----------------------------------------

def _lexicon_pass(sentence: Sentence, inventory: TagInventory,
                  lexicon: Lexicon | None, rules: RuleCascade | None,
                  cfg: FeatureConfig, source: str = "all",
                  hard_rules: RuleCascade | None = None):
    """What the lexicon and the rule cascade allow at each position:
    (candidate tag ids, suggested tag sets for the lexicon features).

    Hard output rules override the source: candidates become the lexicon
    sets filtered by them.  A source or hard rules without the lexicon or
    the rules they read raise ConfigError, and so do lexicon features
    without a lexicon.  The suggestions are filtered by `rules` unless
    `cfg.lexicon_filter` is "none"; rule-filtered suggestions without rules
    raise ConfigError too.  Each token is looked up once; an out-of-lexicon
    token enters the cascade as the full inventory and suggests None.  Each
    distinct cascade runs once.  Lexicon tags outside the inventory are
    dropped from the candidates, and a position left with none falls back
    to the full inventory.
    """
    n = len(sentence.tokens)
    all_ids = list(range(len(inventory)))
    if hard_rules is not None:
        source, cand_rules = "lexicon+rules", hard_rules
    else:
        cand_rules = rules if source == "lexicon+rules" else None
    if source != "all" and lexicon is None:
        raise ConfigError("hard output rules need a lexicon" if hard_rules is not None else
                          f"candidate source {source!r} needs a lexicon")
    if source == "lexicon+rules" and cand_rules is None:
        raise ConfigError("candidate source 'lexicon+rules' needs rules")
    want_cands = source != "all"
    want_suggested = cfg.use_lexicon_features
    if want_suggested and lexicon is None:
        raise ConfigError("lexicon features need a lexicon")
    if cfg.lexicon_filter != "none" and rules is None:
        raise ConfigError("rule-filtered lexicon features need rules")
    if not (want_cands or want_suggested):
        return [all_ids] * n, [None] * n
    lookups = [lexicon.tags(tok.surface) for tok in sentence.tokens]
    full = frozenset(inventory.tags)
    sets = [full if tags is None else tags for tags in lookups]
    runs = {}  # id(cascade) -> its output

    def filtered(cascade):
        if not cascade:
            return sets
        if id(cascade) not in runs:
            runs[id(cascade)] = apply_cascade(cascade, sentence, sets)
        return runs[id(cascade)]

    cand_ids = [all_ids] * n
    if want_cands:
        index = inventory.index
        cand_ids = [sorted(index[t] for t in tags if t in index) or all_ids
                    for tags in filtered(cand_rules)]
    suggested = [None] * n
    if want_suggested:
        suggested = suggested_tags(
            lookups, filtered(rules if cfg.lexicon_filter != "none" else None))
    return cand_ids, suggested


# Scoring -----------------------------------------------------------------

class _SentenceScorer:
    """Feature extraction and scoring for one sentence against one weight
    table.

    Static (surface and lexicon) feature ids are computed once per position,
    and so is the sum of their weight rows.  A query copies that sum and
    adds the rows of its tag-context features.  These are the float
    additions of summing every row from +0.0, in the same order, so each
    score is exact.  The construction picks how the table is read.  Training
    reads the raw weights, a dict of dense rows that its updates write, and
    sums a position's static rows on its first scoring; a sum stays valid
    while the table does, and after a change confined to two columns,
    `refresh` recomputes those columns of a position's sum and of its cached
    score vectors.  Decoding and `rescore` read the averaged `SparseTable`:
    one `SparseTable.sums` gives every position's static sum, and the
    tag-context rows are the table's memoised dense rows."""

    def __init__(self, model: Model, words, table, cfg: FeatureConfig, suggested, grow: bool):
        self.model = model
        self.words = words
        self.grow = grow
        self.T = len(model.inventory)
        self.static_ids = [self._intern(word_features(words, i, cfg, suggested[i]))
                           for i in range(len(words))]
        self.static_sums: dict[int, np.ndarray] = {}  # position -> sum of its static rows
        if isinstance(table, SparseTable):
            self.row = table.dense.__getitem__
            self.static_sums.update(enumerate(table.sums(self.static_ids)))
        else:
            self.row = table.get

    def _intern(self, feats) -> list[int]:
        ids = self.model.feature_ids
        if self.grow:  # intern only the features not seen yet, in first-seen order
            intern = self.model.intern
            return [fid if (fid := ids.get(f)) is not None else intern(f) for f in feats]
        return [fid for f in feats if (fid := ids.get(f)) is not None]

    def _add_rows(self, vec: np.ndarray, fids) -> np.ndarray:
        row_of = self.row
        for fid in fids:
            row = row_of(fid)
            if row is not None:
                vec += row
        return vec

    def score_vector(self, fids) -> np.ndarray:
        return self._add_rows(np.zeros(self.T), fids)

    def score(self, i: int, visible_ids: dict[int, int]) -> tuple[np.ndarray, list[int]]:
        """Position i's score vector in a visible context, and the ids of
        that context's tag features."""
        visible = {j: self.model.inventory.tags[t] for j, t in visible_ids.items()}
        dynamic = self._intern(tag_features(self.words, i, visible))
        static = self.static_sums.get(i)
        if static is None:
            static = self.static_sums[i] = self.score_vector(self.static_ids[i])
        return self._add_rows(static.copy(), dynamic), dynamic

    def refresh(self, i: int, pairs, g: int, c: int):
        """Recompute columns g and c of position i's static sum and of each
        pair's score vector, in place, after the table changed in those
        columns only.  Each cell is summed as plain floats over the same
        rows in the same order as a full rescore."""
        sg, sc = self._column_sums(0.0, 0.0, self.static_ids[i], g, c)
        static = self.static_sums[i]
        static[g], static[c] = sg, sc
        for *_, vec, dynamic in pairs:
            vec[g], vec[c] = self._column_sums(sg, sc, dynamic, g, c)

    def _column_sums(self, sg: float, sc: float, fids, g: int, c: int):
        row_of = self.row
        for fid in fids:
            row = row_of(fid)
            if row is not None:
                sg += row.item(g)
                sc += row.item(c)
        return sg, sc


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


def _entry(pairs, ids, T: int) -> tuple:
    """A position's cache entry from the score vectors of its hypothesis
    pairs: (best score, best tag, the pair that scored it, pairs).

    Candidate ids are sorted and unique, so a list of length T is the full
    inventory, and argmax (which returns the first maximum, as the loop's
    strict > keeps it) replaces the loop."""
    best, best_c, best_pair = -np.inf, -1, None
    full = len(ids) == T
    for pair in pairs:
        vec = pair[2]
        for c in (int(vec.argmax()),) if full else ids:
            if vec[c] > best:
                best, best_c, best_pair = float(vec[c]), c, pair
    return best, best_c, best_pair, pairs


def _top_tags(scores: np.ndarray, beam: int) -> list[tuple[float, int]]:
    """The top `beam` (score, tag id) pairs of `scores`, best first: the ids
    of argmax at beam 1, and of np.argsort(-scores, kind="stable")[:beam]
    above it, for any float input.

    Each pick is an argmax (the first maximum, so the lowest tag id among
    ties) and then sets its cell to -inf, so `scores` is overwritten.  A
    masked cell ranks below every finite pick.  A pick that is not finite
    (an overflowed sum, or NaN, which argmax ranks first and the sort last)
    may not rank as the sort would, so above beam 1 the picked cells are
    restored and the stable sort decides."""
    top = []
    for _ in range(min(beam, len(scores))):
        c = int(scores.argmax())
        s = float(scores[c])
        if beam > 1 and not math.isfinite(s):
            for s0, c0 in top:
                scores[c0] = s0
            order = np.argsort(-scores, kind="stable")[:beam].tolist()
            return [(float(scores[c]), c) for c in order]
        top.append((s, c))
        scores[c] = -np.inf
    return top


def _refresh(scorer: _SentenceScorer, cache: dict, cand_ids, g: int, c: int):
    """Bring every cache entry up to date after the table changed in
    columns g and c only; the same as rescoring every cached position."""
    for q, e in cache.items():
        scorer.refresh(q, e[3], g, c)
        cache[q] = _entry(e[3], cand_ids[q], scorer.T)


def _search(scorer: _SentenceScorer, cand_ids, beam: int, choose):
    """Easiest-first beam search; returns (tag ids, score, commit order).

    Each step finds the best action (p, c) over all untagged positions and
    calls choose(p, c, cache).  `cache` maps every untagged position to its
    `_entry`; a pair is (left hypothesis, right hypothesis, score vector,
    tag-context feature ids).  choose returns the tags the commit may keep
    at p, or None to repeat the step, after bringing the cache up to date.
    """
    n = len(scorer.words)
    span_at: list[_Span | None] = [None] * n  # written at span edges only
    untagged = list(range(n))
    cache: dict[int, tuple] = {}
    order: list[int] = []

    def entry(p):
        left = span_at[p - 1] if p > 0 else None
        right = span_at[p + 1] if p < n - 1 else None
        pairs = []
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
                pairs.append((lh, rh) + scorer.score(p, visible))
        return _entry(pairs, cand_ids[p], scorer.T)

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
            continue
        # Commit: merge the adjacent spans through p from the cached vectors.
        # A pair's hypotheses share their outer tags, so over the full
        # inventory only each pair's top `beam` tags by (-score, tag id) can
        # survive the cut.
        merged = []
        for lh, rh, vec, _ in top[3]:
            base = (lh[0] if lh else 0.0) + (rh[0] if rh else 0.0)
            ltags = lh[1] if lh else ()
            rtags = rh[1] if rh else ()
            if len(keep) == scorer.T:
                # The same float sums as the loop below, in a fresh array
                # that _top_tags may overwrite.
                for s, c in _top_tags(base + vec, beam):
                    merged.append((s, ltags + (c,) + rtags))
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
           dopts: DecodeOptions = DecodeOptions()):
    """Tag one sentence with the averaged weights; returns (tags, score)."""
    tags, score, _ = _decode(sentence, model, lexicon, rules, dopts, None)
    return tags, score


def decode_with_trace(sentence: Sentence, model: Model,
                      lexicon: Lexicon | None = None,
                      rules: RuleCascade | None = None,
                      dopts: DecodeOptions = DecodeOptions()):
    """decode() plus the per-step trace and commit order, for audits."""
    trace: list[TraceStep] = []
    tags, score, order = _decode(sentence, model, lexicon, rules, dopts, trace)
    return tags, score, trace, order


def _decode(sentence, model, lexicon, rules, dopts, trace):
    """(tags, score, commit order); a TraceStep per commit is appended to
    `trace` unless it is None."""
    cand_ids, suggested = _lexicon_pass(sentence, model.inventory, lexicon, rules, model.cfg,
                                        dopts.candidate_source, dopts.hard_output_rules)
    scorer = _SentenceScorer(model, sentence.surfaces(), model.averaged, model.cfg,
                             suggested, grow=False)

    def choose(p, c, cache):
        if trace is not None:
            trace.append(TraceStep(p, c, cache[p][0],
                                   {q: cache[q][0] for q in sorted(cache)}))
        return cand_ids[p]

    ids, score, order = _search(scorer, cand_ids, dopts.beam_size, choose)
    return [model.inventory.tags[t] for t in ids], score, order


def rescore(sentence: Sentence, tags, commit_order, model: Model,
            lexicon: Lexicon | None = None,
            rules: RuleCascade | None = None) -> float:
    """Replay a commit order over a fixed assignment, summing action scores.

    Replaying decode's own commit order and output tags reproduces its
    reported score (up to float association)."""
    n = len(sentence.tokens)
    if sorted(commit_order) != list(range(n)):
        raise ValueError("commit_order is not a permutation of positions")
    if len(tags) != n:
        raise ValueError("tags/sentence length mismatch")
    _, suggested = _lexicon_pass(sentence, model.inventory, lexicon, rules, model.cfg)
    scorer = _SentenceScorer(model, sentence.surfaces(), model.averaged, model.cfg,
                             suggested, grow=False)
    tag_ids = [model.inventory.id(t) for t in tags]
    assigned: dict[int, int] = {}
    total = 0.0
    for p in commit_order:
        vec, _ = scorer.score(p, _visible_context(p, assigned))
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
    """The average of the raw weights after each update, in the lazy
    per-cell form (Collins, EMNLP 2002; Daumé III, PhD thesis, 2006).

    If update j adds delta_j, the weights after update i are w_i = delta_1
    + ... + delta_i, and after k updates

        (w_1 + ... + w_k) / k = w_k - u / k,  u = sum over j of (j - 1) delta_j,

    since delta_j is in the k - j + 1 snapshots from w_j on.  A PA update
    changes two cells per feature row, so u is a sparse map of cells, keyed
    fid * T + tag.  `touch` is called before a row changes; this form needs
    no work there, but a subclass can watch the rows through it."""

    def __init__(self, T: int):
        self.T = T
        self.u: dict[int, float] = {}
        self.k = 0  # number of updates so far

    def touch(self, fid: int, row: np.ndarray):
        """Row fid is about to change in update k + 1."""

    def add(self, fid: int, g: int, c: int, step: float):
        """Update k + 1 adds `step` to cell g of row fid and subtracts it
        from cell c."""
        u, key, credit = self.u, fid * self.T, self.k * step
        u[key + g] = u.get(key + g, 0.0) + credit
        u[key + c] = u.get(key + c, 0.0) - credit

    def finalize(self, weights: dict[int, np.ndarray]) -> SparseTable:
        """The averaged rows, w - u / k, as a SparseTable with a row for each
        raw row, in the raw table's order, holding its nonzero cells; no
        rows before the first update.

        Every cell an update wrote has an entry in u, so the cells of u are
        all that can be nonzero, and each is computed as the float
        operations w - (u / k) on its own."""
        T = self.T
        if self.k == 0:
            return SparseTable(T)
        fids = np.fromiter(weights, np.int64, len(weights))
        rank = np.empty(int(fids.max()) + 1, dtype=np.int64)
        rank[fids] = np.arange(len(fids))
        keys = np.fromiter(self.u, np.int64, len(self.u))
        credits = np.fromiter(self.u.values(), np.float64, len(self.u))
        cell_fids, tags = np.divmod(keys, T)
        rows = rank[cell_fids]
        order = np.argsort(rows * T + tags)
        rows, tags, cell_fids = rows[order], tags[order], cell_fids[order]
        raw = np.array([weights[fid].item(tag)
                        for fid, tag in zip(cell_fids.tolist(), tags.tolist())])
        cells = raw - credits[order] / self.k
        keep = cells != 0.0
        counts = np.bincount(rows[keep], minlength=len(fids))
        return SparseTable(T, fids, np.concatenate(([0], np.cumsum(counts))), tags[keep],
                           cells[keep])


def train(corpus: Corpus, lexicon: Lexicon | None = None,
          rules: RuleCascade | None = None,
          topts: TrainOptions = TrainOptions(),
          cfg: FeatureConfig = FeatureConfig(),
          update_log: list | None = None):
    """Train a model; returns (model, per-epoch training accuracies).

    The inventory is all tags in the corpus plus all lexicon tags, sorted.
    The model records `cfg` and trains under `cfg.for_training()`: a
    "test-only" lexicon filter trains on unfiltered suggestions.  Pass
    `update_log` to capture every PA update for audits.
    """
    if not corpus.sentences:
        raise ConfigError("cannot train on an empty corpus")
    for tok in corpus.tokens():
        if tok.gold_tag is None:
            raise DataError(f"training token {tok.surface!r} has no gold tag")
    tags = {tok.gold_tag for tok in corpus.tokens()}
    if lexicon is not None:
        tags |= lexicon.all_tags()
    try:
        inventory = TagInventory(sorted(tags))
    except ValueError as exc:
        raise DataError(f"cannot build the tag inventory: {exc}") from None

    model = Model(inventory, cfg, meta={"epochs": topts.epochs, "seed": topts.seed,
                                        "candidate_source": topts.candidate_source})
    avg = _AveragedAccumulator(len(inventory))
    C, margin = topts.aggressiveness, topts.margin
    epoch_accuracy = []
    cfg = cfg.for_training()

    # Candidate sets, suggestions and gold ids are fixed across epochs.  Each
    # sentence's scorer is built in the first epoch, in corpus order (which
    # fixes the feature ids), and reused after that.
    sent_cands, sent_suggested, sent_gold = [], [], []
    for sent in corpus:
        cands, suggested = _lexicon_pass(sent, inventory, lexicon, rules, cfg,
                                         topts.candidate_source)
        gold = [inventory.id(tok.gold_tag) for tok in sent.tokens]
        for tok, g, ids in zip(sent.tokens, gold, cands):
            if g not in ids:
                raise DataError(
                    f"gold tag {tok.gold_tag!r} of token {tok.surface!r} is not "
                    f"among its candidates under source {topts.candidate_source!r}")
        sent_cands.append(cands)
        sent_suggested.append(suggested)
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
                                                      cfg, sent_suggested[i], grow=True)
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
                _, _, (_, _, vec, dynamic), _ = cache[p]
                fids = scorer.static_ids[p] + dynamic
                s_pred, s_gold = float(vec[c]), float(vec[gold[p]])
                denom = 2.0 * len(fids)
                tau = min(C, (margin + s_pred - s_gold) / denom)
                for fid, m in Counter(fids).items():
                    row = model.weights.get(fid)
                    if row is None:
                        row = model.weights[fid] = np.zeros(len(inventory))
                    avg.touch(fid, row)
                    step = tau * m
                    row[gold[p]] += step
                    row[c] -= step
                    avg.add(fid, gold[p], c, step)
                avg.k += 1
                if update_log is not None:
                    vec2 = scorer.score_vector(fids)
                    update_log.append(UpdateRecord(
                        p, gold[p], c, tau, tau >= C,
                        float(vec2[gold[p]] - vec2[c])))
                # The update changed only columns gold[p] and c.
                _refresh(scorer, cache, sent_cands[i], gold[p], c)
                return None

            _search(scorer, sent_cands[i], 1, choose)
            # Later updates change the table, so the next search rebuilds
            # the static sums; releasing them keeps memory flat.
            scorer.static_sums.clear()
            total_tokens += len(gold)
            clean_tokens += len(gold) - len(dirty)
        epoch_accuracy.append(clean_tokens / total_tokens)

    model.averaged = avg.finalize(model.weights)
    model.meta["updates"] = avg.k
    model.meta["epoch_accuracy"] = epoch_accuracy
    return model, epoch_accuracy
