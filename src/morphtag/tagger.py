"""Guided-learning tagger: easiest-first bidirectional beam search with a
passive-aggressive averaged perceptron.

One search core serves decoding and training.  Each step scores every
(untagged position, candidate tag) action given the neighbour tags already
committed, and commits the single highest-scoring action anywhere in the
sentence, growing tagged spans from both directions.  Each span keeps up to
B hypotheses; a hypothesis' accumulated score is the sum of the action
scores that built it.  A position's visible context is one value,
(left, right): the committed tags just before it, nearest last, and just
after it, nearest first, at most two on each side, read only through a
contiguous run of committed positions (offset -2 counts only when -1 is
committed too).  That keeps every hypothesis' score exactly replayable
from its commit order.  It also means a commit is seen only by the two
untagged positions just outside the new span: the search's cache holds
every untagged position, in position order, with its best action and
score vectors, and a commit deletes its position and enters only those two
again.
A score vector is the sum of the position's static (surface and lexicon)
weight rows, built before every search, plus the rows of its tag-context
features.  A search scores each visible context of a position once:
hypothesis pairs that see the same neighbour tags share one vector, and so
does a re-entered position that sees the tags its previous entry saw: it
finds them among the pairs of the entry it replaces.

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
the raw weights, so before the repeat those two columns of a cached static
sum and score vector are summed again, over the same rows in the same order,
and the position's best tag is re-derived, at every cached position that can
read one of them: one on the full inventory, or one with either column among
its candidates.  The others read neither column, and keep their entries.  At
every column the search reads, the cache ends exactly as a full rescore
would leave it.  Raw weights drive training: a raw row is a
`{tag id: value}` dict until it holds more than T // 64 cells, and a dense
row after that, so at 680 tags most rows stay a few cells; below 128 tags
every row is dense.  Decoding uses their average over all updates, which
`_RawRows` keeps beside the rows, per cell, and emits as a `SparseTable`
whose row r is the row of feature id r: the compressed sparse rows the
model file stores, which a loaded model keeps as they are read, the file's
row r as id r.  No dense table of the raw or the averaged rows is built:
decoding sums a sentence's static rows with one bincount and adds
tag-context rows dense, from a bounded memo.

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
_DENSE_CELLS = 2 ** 21  # the cells a _DenseRows memo holds at most: 16 MiB
_SPARSE_SHARE = 64  # a raw training row is a dict while it holds at most T // 64 cells


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
    training updates, a `_RawRows`, which also keeps their average, and that
    average, which decoding reads, a `SparseTable`.  `weights` reads each
    raw row as a fresh dense row; training writes the rows it holds.

    The file (format 6) is one UTF-8 JSON object holding only what decoding
    reads: `tags`, `config` (the two `FeatureConfig` fields), `meta` and the
    averaged table as compressed sparse rows.  Row r belongs to the feature
    string `features[r]` and holds the next `lengths[r]` cells of the flat
    arrays `tag_ids`, strictly ascending within the row, and `values`.  The
    three arrays are ASCII strings, the base64 of little-endian numbers:
    `values` of float64, so the bits read back exactly without printing or
    parsing float text, and `lengths` and `tag_ids` of unsigned integers of
    2 bytes when there are at most 65,535 tags and of 4 bytes otherwise; the
    width follows from `tags`.  Only nonzero cells are written, and only
    features with one, in feature id order, which is first-seen order for a
    trained model.  A loaded model interns `features[r]` as id r, keeps the
    file's arrays as its averaged table, with offsets 0 followed by the
    running sums of `lengths`, and has no raw weights; no dense table is
    built.  So it saves the bytes it was read from, whatever order the rows
    were written in, and decodes with the same bits in any row order: it
    looks rows up by feature string, and an absent feature, an empty row
    and a zero cell all add nothing to a score vector that starts at +0.0."""

    FORMAT_VERSION = 6

    def __init__(self, inventory: TagInventory, cfg: FeatureConfig, meta=None):
        self.inventory = inventory
        self.cfg = cfg
        self.feature_ids: dict[str, int] = {}
        self.weights = _RawRows(len(inventory))
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
        counts = np.bincount(table.cell_rows()[keep])
        rows = counts.nonzero()[0]
        ints = _int_dtype(len(self.inventory))
        payload = {
            "format": self.FORMAT_VERSION,
            "tags": self.inventory.tags,
            "config": self.cfg.to_dict(),
            "meta": self.meta,
            "features": [names[fid] for fid in rows.tolist()],
            "lengths": _b64encode(counts[rows], ints),
            "tag_ids": _b64encode(table.tag_ids[keep], ints),
            "values": _b64encode(table.cells[keep], "<f8"),
        }
        # json.dumps runs the C encoder; json.dump to a file does not.
        write_text(path, json.dumps(payload, ensure_ascii=False, separators=(",", ":")))

    # Top-level fields of a model file and their JSON types; "meta" may be absent.
    _FIELDS = {"tags": list, "config": dict, "meta": dict, "features": list,
               "lengths": str, "tag_ids": str, "values": str}
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
        # before the features become dict keys.
        for key in ("tags", "features"):
            if set(map(type, payload[key])) - {str}:
                raise malformed(f"an element of {key!r} is not a string")
        # A bad tag or config (an invalid or repeated tag, an unknown config
        # key) surfaces as one of these while the model is built.
        try:
            model = cls(TagInventory(payload["tags"]),
                        FeatureConfig.from_dict(payload["config"]), payload["meta"])
        except (TypeError, ValueError, ConfigError) as exc:
            raise malformed(exc) from None
        features = payload["features"]
        R, T = len(features), len(model.inventory)

        def array(key, dtype):
            # validate=True rejects every character outside the base64
            # alphabet; text that is not ASCII raises ValueError too.
            try:
                raw = base64.b64decode(payload[key], validate=True)
            except ValueError as exc:
                raise malformed(f"{key!r} is not base64: {exc}") from None
            size = np.dtype(dtype).itemsize
            if len(raw) % size:
                raise malformed(f"{key!r} holds {len(raw)} bytes, not a multiple of {size}")
            return np.frombuffer(raw, dtype=dtype)
        ints = _int_dtype(T)
        lengths = array("lengths", ints)
        tag_ids = array("tag_ids", ints)
        values = array("values", "<f8")
        if len(lengths) != R:
            raise malformed(f"'lengths' holds {len(lengths)} rows, not the {R} of 'features'")
        if len(values) != len(tag_ids):
            raise malformed(f"'values' holds {len(values)} cells, not the "
                            f"{len(tag_ids)} of 'tag_ids'")
        offsets = np.zeros(R + 1, dtype=np.int64)
        np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
        if offsets[-1] != len(tag_ids):
            raise malformed(f"'lengths' add up to {offsets[-1]} cells, not the "
                            f"{len(tag_ids)} of 'tag_ids'")
        if np.any(tag_ids >= T):
            raise malformed(f"a tag id lies outside the {T} tags")
        table = SparseTable(T, offsets, tag_ids, values)
        # A repeated tag id would be summed by SparseTable.sums but
        # overwritten in a dense row, so the two would disagree.  The
        # differences are taken in the table's int64, where they can be
        # negative.
        if np.any((np.diff(table.tag_ids) <= 0) & (np.diff(table.cell_rows()) == 0)):
            raise malformed("the tag ids of a row do not strictly ascend")
        # numpy would store NaN, which the search's argmax and its
        # comparisons disagree on.
        if not np.all(np.isfinite(values)):
            raise malformed("a cell of 'values' is not finite")
        model.feature_ids = dict(zip(features, range(R)))
        if len(model.feature_ids) != R:
            raise malformed("a feature is repeated")
        model.averaged = table
        return model


def _int_dtype(T: int) -> str:
    """The little-endian unsigned integers of a model file's `lengths` and
    `tag_ids` for T tags: 2 bytes up to 65,535 tags, which holds every tag
    id and every row length, and 4 bytes above that."""
    return "<u2" if T <= 0xFFFF else "<u4"


def _b64encode(array: np.ndarray, dtype: str) -> str:
    """The base64 text of `array` as `dtype`, as a model file stores it."""
    return base64.b64encode(array.astype(dtype).tobytes()).decode("ascii")


class SparseTable(Mapping):
    """A table of float64 rows of T cells, as compressed sparse rows: row r
    is the row of feature id r and holds the cells
    `offsets[r]:offsets[r + 1]` of `tag_ids`, strictly ascending within the
    row, and of `cells`.  A cell that is not stored is +0.0.  The arrays are
    int64, int64 and float64 whatever they are built from; a model file
    stores `np.diff(offsets)` and `tag_ids` as narrower integers (see
    `Model`).

    As a Mapping it reads feature id -> a fresh dense row, in id order, so
    writing to a row read from it changes nothing; a row with no stored
    cell is absent.  Decoding reads the arrays: `sums` adds up the rows of
    every position of a sentence at once, and `dense` is a bounded memo of
    the dense rows that tag-context features add to a score vector.  No
    dense block of all rows is built."""

    def __init__(self, T: int, offsets=(0,), tag_ids=(), cells=()):
        self.T = T
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.tag_ids = np.asarray(tag_ids, dtype=np.int64)
        self.cells = np.asarray(cells, dtype=np.float64)
        self.dense = _DenseRows(self)

    def __getitem__(self, fid) -> np.ndarray:
        start, end = self.offsets[fid:fid + 2] if 0 <= fid < len(self.offsets) - 1 else (0, 0)
        if start == end:
            raise KeyError(fid)
        row = np.zeros(self.T)
        row[self.tag_ids[start:end]] = self.cells[start:end]
        return row

    def __iter__(self):
        return iter(np.diff(self.offsets).nonzero()[0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.offsets)))

    def cell_rows(self) -> np.ndarray:
        """The row, that is the feature id, of each cell."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def sums(self, fid_lists) -> np.ndarray:
        """An array whose row i is the sum of the rows of the feature ids
        `fid_lists[i]`, in list order; every id must have a row, which may
        be empty.

        One np.bincount over the gathered cells, keyed i * T + tag, adds
        each bin's cells in input order from +0.0, so row i has the bits of
        adding the dense rows one by one to a vector of +0.0: a sum that
        starts at +0.0 never becomes -0.0, so a skipped zero cell changes
        nothing, and a row adds at most one cell to each bin.  The sums are
        float64 even when no cell is gathered (bincount then counts in
        int64)."""
        n, T = len(fid_lists), self.T
        lengths = [len(fids) for fids in fid_lists]
        fids = np.fromiter(itertools.chain.from_iterable(fid_lists), np.int64, sum(lengths))
        positions = np.repeat(np.arange(n), lengths)
        starts = self.offsets[fids]
        counts = self.offsets[fids + 1] - starts
        # The cell indices of each row in turn.
        picked = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        keys = np.repeat(positions * T, counts) + self.tag_ids[picked]
        sums = np.bincount(keys, self.cells[picked], minlength=n * T)
        return sums.astype(np.float64, copy=False).reshape(n, T)


def _dense(cells: dict[int, float], T: int) -> np.ndarray:
    """A dense row of T cells holding `cells` and +0.0 elsewhere."""
    row = np.zeros(T)
    row[list(cells)] = list(cells.values())
    return row


class _RawRows(Mapping):
    """Training's raw weights and their average over all updates.

    `rows` maps a feature id to its row: a `{tag id: value}` dict while the
    row holds at most `sparse_cells` cells, and a dense float64 array of T
    cells after that.  `sparse_cells` is T // 64, or 0 when that is below 2
    (below 128 tags): a new row holds the two cells of its first update at
    once, so then every row is dense from its creation.  A cell a dict does
    not hold is +0.0.

    The average is kept in the lazy per-cell form (Collins, EMNLP 2002;
    Daumé III, PhD thesis, 2006).  If update j adds delta_j, the weights
    after update i are w_i = delta_1 + ... + delta_i, and after k updates

        (w_1 + ... + w_k) / k = w_k - u / k,  u = sum over j of (j - 1) delta_j,

    since delta_j is in the k - j + 1 snapshots from w_j on.  A PA update
    changes two cells per feature row, so u is a sparse map of cells, keyed
    fid * T + tag.

    As a Mapping it reads feature id -> a fresh dense row, in the order the
    rows were created, so writing to a row read from it changes nothing.  A
    loaded model has no raw rows."""

    def __init__(self, T: int):
        self.T = T
        cells = T // _SPARSE_SHARE
        self.sparse_cells = cells if cells >= 2 else 0
        self.rows: dict[int, dict[int, float] | np.ndarray] = {}
        self.u: dict[int, float] = {}
        self.k = 0  # number of updates so far

    def __getitem__(self, fid) -> np.ndarray:
        row = self.rows[fid]
        return _dense(row, self.T) if type(row) is dict else row.copy()

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def update(self, fids, g: int, c: int, step: float):
        """Update k + 1: add `step` to cell g and subtract it from cell c of
        the row of each of the distinct `fids`, and credit u with the same
        two cells.  A missing row is created as a dict, or as zeros when
        `sparse_cells` is 0.  A dict row that then holds more than
        `sparse_cells` cells is replaced, at the same place in the rows'
        order, by the dense row of its cells.  Each cell gets the float
        operations a dense row would."""
        T, rows, u, credit, most = self.T, self.rows, self.u, self.k * step, self.sparse_cells
        for fid in fids:
            row = rows.get(fid)
            if row is None:
                row = rows[fid] = {} if most else np.zeros(T)
            if most and type(row) is dict:
                row[g] = row.get(g, 0.0) + step
                row[c] = row.get(c, 0.0) - step
                if len(row) > most:
                    rows[fid] = _dense(row, T)
            else:
                row[g] += step
                row[c] -= step
            key = fid * T
            u[key + g] = u.get(key + g, 0.0) + credit
            u[key + c] = u.get(key + c, 0.0) - credit
        self.k += 1

    def finalize(self, F: int) -> SparseTable:
        """The averaged rows, w - u / k, as a SparseTable of F rows, one for
        each of the model's F interned feature ids, holding each row's
        nonzero cells; every row is empty before the first update.  The
        credits u are released: the raw rows and k stay, but the average
        cannot be extended.

        Every cell an update wrote has an entry in u and in its raw row,
        dict or dense, so the cells of u are all that can be nonzero, and
        each is computed as the float operations w - (u / k) on its own.
        Sorting u's keys, fid * T + tag, puts the cells in row order."""
        T, weights = self.T, self.rows
        u, self.u = self.u, {}
        keys = np.fromiter(u, np.int64, len(u))
        order = np.argsort(keys)
        credits = np.fromiter(u.values(), np.float64, len(u))[order]
        fids, tags = np.divmod(keys[order], T)
        raw = np.array([row[tag] if type(row := weights[fid]) is dict else row.item(tag)
                        for fid, tag in zip(fids.tolist(), tags.tolist())])
        cells = raw - credits / self.k
        keep = cells != 0.0
        counts = np.bincount(fids[keep], minlength=F)
        return SparseTable(T, np.concatenate(([0], np.cumsum(counts))), tags[keep], cells[keep])


class _DenseRows(dict):
    """fid -> a SparseTable's dense row, or None for an empty row, built
    on first use.  Decoding adds these rows to score vectors and never
    writes to them.  A miss that finds `_DENSE_CELLS // T` rows held
    first empties the memo, so a long run keeps a bounded set of rows."""

    def __init__(self, table: SparseTable):
        super().__init__()
        self.table = weakref.ref(table)  # the table holds this memo

    def __missing__(self, fid):
        table = self.table()
        if len(self) >= _DENSE_CELLS // table.T:
            self.clear()
        row = self[fid] = table.get(fid)
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
    to the full inventory.  Every full-inventory candidate list that the
    cascade left as it was, or that falls back, is the inventory's shared
    `ids` list, and every out-of-lexicon set the cascade reads is its shared
    `tag_set`; no caller mutates either.
    """
    n = len(sentence.tokens)
    all_ids = inventory.ids
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
    full = inventory.tag_set
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
        cand_ids = [all_ids if tags is full else
                    sorted(index[t] for t in tags if t in index) or all_ids
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

    Static (surface and lexicon) feature ids are computed once per position.
    `static_sums` lists the sum of each position's static rows, and a query
    copies that sum and adds the rows of its tag-context features.  These
    are the float additions of summing every row from +0.0, in the same
    order, so each score is exact.  Static features read only `use_lexicon_features` of
    `model.cfg`, which `for_training()` keeps.  Training reads the raw
    rows that its updates write, adding a dict row cell by cell in its
    stored order (a cell it does not hold would add +0.0, which changes no
    sum that starts at +0.0, as in `SparseTable.sums`) and interns unseen
    features.  Its `static_sums` is None between searches: `train` builds
    the list with `score_vector` right before each search and drops it
    after.  A sum stays valid while the table does, and after a change
    confined to two columns, `refresh` recomputes those columns of a
    position's sum and of its cached score vectors.  A position `_refresh`
    skips keeps a sum that is stale outside its candidates, where no search
    reads it.  Decoding and `rescore` read the averaged `SparseTable` and
    skip unseen features: one `SparseTable.sums` gives every position's
    static sum, and tag-context rows come from its memo."""

    def __init__(self, model: Model, words, suggested, training: bool = False):
        self.model = model
        self.words = words
        self.training = training
        self.T = len(model.inventory)
        self.sparse = training and model.weights.sparse_cells > 0  # can a row be a dict?
        self.static_ids = [self._intern(word_features(words, i, model.cfg, suggested[i]))
                           for i in range(len(words))]
        # Position i -> the sum of its static rows; `train` sets it per search.
        self.static_sums: list[np.ndarray] | None = None
        if training:
            self.row = model.weights.rows.get
        else:
            self.row = model.averaged.dense.__getitem__
            self.static_sums = list(model.averaged.sums(self.static_ids))

    def _intern(self, feats) -> list[int]:
        ids = self.model.feature_ids
        if self.training:  # intern only the features not seen yet, in first-seen order
            intern = self.model.intern
            return [fid if (fid := ids.get(f)) is not None else intern(f) for f in feats]
        return [fid for f in feats if (fid := ids.get(f)) is not None]

    def _add_rows(self, vec: np.ndarray, fids) -> np.ndarray:
        row_of, sparse = self.row, self.sparse
        for fid in fids:
            row = row_of(fid)
            if row is None:
                continue
            if sparse and type(row) is dict:
                for t, v in row.items():
                    vec[t] += v
            else:
                vec += row
        return vec

    def score_vector(self, fids) -> np.ndarray:
        return self._add_rows(np.zeros(self.T), fids)

    def score(self, i: int, left=(), right=()) -> tuple[np.ndarray, list[int]]:
        """Position i's score vector in the visible context (left, right),
        and the ids of that context's tag features.  `left` holds the tag
        ids at i - len(left) .. i - 1 and `right` those at
        i + 1 .. i + len(right), at most two each (see `tag_features`)."""
        tags = self.model.inventory.tags
        dynamic = self._intern(tag_features(self.words, i, [tags[t] for t in left],
                                            [tags[t] for t in right]))
        return self._add_rows(self.static_sums[i].copy(), dynamic), dynamic

    def refresh(self, i: int, pairs, g: int, c: int):
        """Recompute columns g and c of position i's static sum and of each
        pair's score vector, in place, after the table changed in those
        columns only.  Each cell is summed as plain floats over the same
        rows in the same order as a full rescore.  `_refresh` calls it only
        for the positions that can read column g or c."""
        sg, sc = self._column_sums(0.0, 0.0, self.static_ids[i], g, c)
        static = self.static_sums[i]
        static[g], static[c] = sg, sc
        for *_, vec, dynamic in pairs:
            vec[g], vec[c] = self._column_sums(sg, sc, dynamic, g, c)

    def _column_sums(self, sg: float, sc: float, fids, g: int, c: int):
        row_of, sparse = self.row, self.sparse
        for fid in fids:
            row = row_of(fid)
            if row is None:
                continue
            if sparse and type(row) is dict:
                sg += row.get(g, 0.0)
                sc += row.get(c, 0.0)
            else:
                sg += row.item(g)
                sc += row.item(c)
        return sg, sc


def _visible_context(p: int, assigned: dict[int, int]) -> tuple[tuple, tuple]:
    """The (left, right) tag ids visible at p through contiguous committed
    runs only: offset -2 (+2) counts only when -1 (+1) is committed too."""
    left = right = ()
    if p - 1 in assigned:
        left = (assigned[p - 2], assigned[p - 1]) if p - 2 in assigned else (assigned[p - 1],)
    if p + 1 in assigned:
        right = (assigned[p + 1], assigned[p + 2]) if p + 2 in assigned else (assigned[p + 1],)
    return left, right


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
    available: dict  # each untagged position -> its best local action score


def _entry(pairs, ids, T: int) -> tuple:
    """A position's cache entry from the score vectors of its hypothesis
    pairs: (best score, best tag, pairs).

    Candidate ids are sorted and unique, so a list of length T is the full
    inventory, and argmax (which returns the first maximum, as the loop's
    strict > keeps it) replaces the loop."""
    best, best_c = -np.inf, -1
    full = len(ids) == T
    for _, _, vec, _ in pairs:
        for c in (int(vec.argmax()),) if full else ids:
            if vec[c] > best:
                best, best_c = float(vec[c]), c
    return best, best_c, pairs


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
    columns g and c only.

    A position whose candidates are not the full inventory and hold neither
    g nor c is skipped: its entry stays as it is, and its static sum and
    score vectors go stale in those two columns only.  That is exact at
    every column the search reads.  `_entry` reads a vector at the
    position's candidates only, a training commit keeps a candidate, and a
    later `score` of the position copies its static sum, so the staleness
    reaches only vectors read at those same candidates; the position an
    update was made at holds both columns and is always refreshed.  Every
    other position gets the entry a full rescore would give it.  A vector
    that a later entry of the same position reuses is one of its cached
    pairs' vectors, which this loop refreshes."""
    T = scorer.T
    for q, e in cache.items():
        ids = cand_ids[q]
        if len(ids) < T and g not in ids and c not in ids:
            continue
        scorer.refresh(q, e[2], g, c)
        cache[q] = _entry(e[2], ids, T)


def _search(scorer: _SentenceScorer, cand_ids, beam: int, choose):
    """Easiest-first beam search; returns (tag ids, score, commit order).

    `cache` maps every untagged position, in position order, to its
    `_entry`; a pair is (left hypothesis, right hypothesis, score vector,
    tag-context feature ids), and the side with no span next to the
    position has the empty hypothesis (0.0, ()).  Every position is entered
    before the first step.  Each step finds the best action (p, c) over the
    cache, the earliest position winning a tie, and calls
    choose(p, c, cache).  choose returns the tags the commit may keep at p,
    or None to repeat the step, after bringing the cache up to date.  A
    commit deletes p from the cache and enters again the untagged positions
    just outside the new span, in place, so the cache keeps position order.
    A step at which no untagged position has a finite best score raises
    FloatingPointError.

    A pair's visible context is (left, right): the last one or two tags of
    its left hypothesis and the first one or two of its right one.
    Hypotheses of one span often share them, and a position entered again
    after a commit at the far end of a span next to it often sees the tags
    it saw before.  So an entry scores only the contexts that neither it
    nor the entry it replaces has scored: a re-entry finds its old contexts
    among the pairs of that entry, and shares their `(score vector,
    tag-context feature ids)`.  A context seen at other offsets has other
    tuple lengths, so it never matches.  No context is scored twice in a
    search: while the offsets stay, a span next to the position grows only
    away from it, and each new hypothesis keeps the near tags of an old
    one, so a context that leaves an entry never comes back.  A first entry
    sees no tags, a context that never comes back either.
    """
    n, T = len(scorer.words), scorer.T
    # Written at span edges only.  Slot n is never written, so it is the
    # empty neighbour of both sentence edges: span_at[-1] reads it too.
    span_at: list[_Span | None] = [None] * (n + 1)
    empty = (0.0, ())  # the hypothesis of a side with no span
    order: list[int] = []

    def entry(p, old=()):
        left, right = span_at[p - 1], span_at[p + 1]
        # A first entry sees no tags: one pair, with nothing to share.  It
        # skips the map, which costs 3-5% of training time.
        if left is None and right is None:
            return _entry([(empty, empty) + scorer.score(p)], cand_ids[p], T)
        # A hypothesis holds the tags of its whole span, so its last (first)
        # two tags are those p sees through the contiguous run.
        known = {(lh[1][-2:], rh[1][:2]): (vec, dynamic) for lh, rh, vec, dynamic in old}
        pairs = []
        for lh in (left.hyps if left else (empty,)):
            for rh in (right.hyps if right else (empty,)):
                key = lh[1][-2:], rh[1][:2]
                result = known.get(key)
                if result is None:
                    result = known[key] = scorer.score(p, *key)
                pairs.append((lh, rh) + result)
        return _entry(pairs, cand_ids[p], T)

    cache = {q: entry(q) for q in range(n)}
    while cache:
        p, top = None, (-np.inf,)
        for q, e in cache.items():
            if e[0] > top[0]:
                p, top = q, e
        if p is None:  # every best score is -inf or NaN
            raise FloatingPointError("no untagged position has a finite best score")
        keep = choose(p, top[1], cache)
        if keep is None:
            continue
        # Commit: merge the adjacent spans through p from the cached vectors.
        # A pair's hypotheses share their outer tags, so over the full
        # inventory only each pair's top `beam` tags by (-score, tag id) can
        # survive the cut.
        merged = []
        for lh, rh, vec, _ in top[2]:
            base, ltags, rtags = lh[0] + rh[0], lh[1], rh[1]
            if len(keep) == T:
                # The same float sums as the loop below, in a fresh array
                # that _top_tags may overwrite.
                for s, c in _top_tags(base + vec, beam):
                    merged.append((s, ltags + (c,) + rtags))
            else:
                for c in keep:
                    merged.append((base + float(vec[c]), ltags + (c,) + rtags))
        merged.sort(key=lambda h: (-h[0], h[1]))
        left, right = span_at[p - 1], span_at[p + 1]
        span = _Span(left.start if left else p, right.end if right else p,
                     merged[:beam])
        span_at[span.start] = span_at[span.end] = span
        del cache[p]
        order.append(p)
        # Context is seen only through a contiguous committed run, so only
        # the positions next to the span can see it.  They are entered again,
        # since their cached pairs hold the span's old hypotheses; each new
        # entry shares the vectors of the old pairs whose context did not
        # change.
        for q in (span.start - 1, span.end + 1):
            if q in cache:
                cache[q] = entry(q, cache[q][2])
    final = span_at[0]
    assert final is not None and final.start == 0 and final.end == n - 1
    score, tags = final.hyps[0]
    return list(tags), float(score), order


def decode(sentence: Sentence, model: Model, lexicon: Lexicon | None = None,
           rules: RuleCascade | None = None,
           dopts: DecodeOptions = DecodeOptions()):
    """Tag one sentence with the averaged weights; returns (tags, score).
    Raises DataError when the model's scores overflow, so that no untagged
    token has a finite best score."""
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
    scorer = _SentenceScorer(model, sentence.surfaces(), suggested)

    def choose(p, c, cache):
        if trace is not None:
            trace.append(TraceStep(p, c, cache[p][0], {q: e[0] for q, e in cache.items()}))
        return cand_ids[p]

    # Model.load accepts every finite cell, but a sum of cells can still
    # overflow.
    try:
        ids, score, order = _search(scorer, cand_ids, dopts.beam_size, choose)
    except FloatingPointError:
        raise DataError(f"the model's scores overflow on the sentence starting "
                        f"{sentence.tokens[0].surface!r}: no untagged token has a "
                        f"finite best score") from None
    return [model.inventory.tags[t] for t in ids], score, order


def rescore(sentence: Sentence, tags, commit_order, model: Model,
            lexicon: Lexicon | None = None,
            rules: RuleCascade | None = None) -> float:
    """Replay a commit order over a fixed assignment, summing action scores.

    Replaying decode's own commit order and output tags reproduces its
    reported score (up to float association).  Raises ValueError when the
    order is not a permutation of the positions, the tag count is not the
    sentence length, or a tag is not in the model's inventory."""
    n = len(sentence.tokens)
    if sorted(commit_order) != list(range(n)):
        raise ValueError("commit_order is not a permutation of positions")
    if len(tags) != n:
        raise ValueError("tags/sentence length mismatch")
    _, suggested = _lexicon_pass(sentence, model.inventory, lexicon, rules, model.cfg)
    scorer = _SentenceScorer(model, sentence.surfaces(), suggested)
    tag_ids = [model.inventory.id(t) for t in tags]
    assigned: dict[int, int] = {}
    total = 0.0
    for p in commit_order:
        vec, _ = scorer.score(p, *_visible_context(p, assigned))
        total += float(vec[tag_ids[p]])
        assigned[p] = tag_ids[p]
    return total


# Training ----------------------------------------------------------------

def train(corpus: Corpus, lexicon: Lexicon | None = None,
          rules: RuleCascade | None = None,
          topts: TrainOptions = TrainOptions(),
          cfg: FeatureConfig = FeatureConfig()):
    """Train a model; returns (model, per-epoch training accuracies).

    The inventory is all tags in the corpus plus all lexicon tags, sorted.
    The model records `cfg` and trains under `cfg.for_training()`: a
    "test-only" lexicon filter trains on unfiltered suggestions.

    Training that diverges raises ConfigError naming `aggressiveness` and
    `margin`: as soon as a PA update meets a score or step that is not
    finite, when no untagged position has a finite best score, and at the
    end if an averaged cell is not finite, which `Model.load` would reject.
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
    weights = model.weights
    C, margin = topts.aggressiveness, topts.margin
    diverged = (f"training diverged: a score or weight is no longer finite; lower "
                f"aggressiveness (now {C}) or margin (now {margin})")
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
                scorer = scorers[i] = _SentenceScorer(model, sent.surfaces(), sent_suggested[i],
                                                      training=True)
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
                # Training searches at beam 1, so the entry has one pair.
                (_, _, vec, dynamic), = cache[p][2]
                fids = scorer.static_ids[p] + dynamic
                s_pred, s_gold = float(vec[c]), float(vec[gold[p]])
                denom = 2.0 * len(fids)  # ||delta||^2: a position's features are distinct
                tau = min(C, (margin + s_pred - s_gold) / denom)
                # tau alone can be finite (C) when a score is not.
                if not (math.isfinite(s_pred) and math.isfinite(s_gold) and math.isfinite(tau)):
                    raise ConfigError(diverged)
                weights.update(fids, gold[p], c, tau)
                # The update changed only columns gold[p] and c.
                _refresh(scorer, cache, sent_cands[i], gold[p], c)
                return None

            # Updates change the table between searches, so each search
            # gets fresh static sums; releasing them keeps memory flat.
            scorer.static_sums = [scorer.score_vector(ids) for ids in scorer.static_ids]
            try:
                _search(scorer, sent_cands[i], 1, choose)
            except FloatingPointError:
                raise ConfigError(diverged) from None
            scorer.static_sums = None
            total_tokens += len(gold)
            clean_tokens += len(gold) - len(dirty)
        epoch_accuracy.append(clean_tokens / total_tokens)

    model.averaged = weights.finalize(len(model.feature_ids))
    # Model.load rejects such a cell, so the model would be written but
    # could not be read back.
    if not np.isfinite(model.averaged.cells).all():
        raise ConfigError(diverged)
    model.meta["updates"] = weights.k
    model.meta["epoch_accuracy"] = epoch_accuracy
    return model, epoch_accuracy
