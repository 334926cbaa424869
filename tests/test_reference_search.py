"""A cache-free reference for the tagger's search and training, and the
differential tests that hold the tagger to it.

The reference keeps no score between steps.  At every step it scores every
untagged position from scratch: the weight rows of the position's
`word_features` and `tag_features`, in list order, summed from +0.0.  It
takes the best action by strict > over positions in order, then over each
position's hypothesis pairs and candidates in order, and merges a commit by
sorting every extension on (-score, tags).  Training is beam-1 with the
tagger's PA step and update guard, over raw rows keyed by feature string.
It shares only `_lexicon_pass` and the feature templates with the tagger.
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import morphtag.tagger as tagger_mod
from conftest import make_corpus
from morphtag.corpus import Corpus, Sentence, Token
from morphtag.features import FeatureConfig, tag_features, word_features
from morphtag.lexicon import Lexicon
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_synthetic,
                                synthetic_tags)
from morphtag.tagger import (CANDIDATE_SOURCES, DecodeOptions, TrainOptions, _RawRows,
                             _lexicon_pass, decode_with_trace, train)
from morphtag.tagset import TagInventory


def ref_score(rows: dict, T: int, feats) -> np.ndarray:
    vec = np.zeros(T)
    for f in feats:
        row = rows.get(f)
        if row is not None:
            vec += row
    return vec


def ref_search(words, cand_ids, suggested, cfg, tags, rows, beam, choose):
    """(tag ids, score, [(position, tag id, score)] per commit).

    choose(p, c, pairs) returns the tags a commit keeps at p, or None to
    take the step again; a pair is (left hypothesis, right hypothesis,
    score vector, features)."""
    n, T = len(words), len(tags)
    static = [word_features(words, i, cfg, suggested[i]) for i in range(n)]
    spans = []  # [start, end, hypotheses (score, tag ids) best first]
    steps = []
    while len(steps) < n:
        committed = {i for start, end, _ in spans for i in range(start, end + 1)}
        best, action = -np.inf, None
        for p in range(n):
            if p in committed:
                continue
            left = next((s for s in spans if s[1] == p - 1), None)
            right = next((s for s in spans if s[0] == p + 1), None)
            pairs = []
            for lh in left[2] if left else [None]:
                for rh in right[2] if right else [None]:
                    lt = rt = ()
                    if lh is not None:
                        lt = (tags[lh[1][-1]],)
                        if p - 2 >= left[0]:
                            lt = (tags[lh[1][-2]],) + lt
                    if rh is not None:
                        rt = (tags[rh[1][0]],)
                        if p + 2 <= right[1]:
                            rt += (tags[rh[1][1]],)
                    feats = static[p] + tag_features(words, p, lt, rt)
                    pairs.append((lh, rh, ref_score(rows, T, feats), feats))
            for pair in pairs:
                for c in cand_ids[p]:
                    if pair[2][c] > best:
                        best, action = float(pair[2][c]), (p, c, pairs, left, right)
        p, c, pairs, left, right = action
        keep = choose(p, c, pairs)
        if keep is None:
            continue
        merged = []
        for lh, rh, vec, _ in pairs:
            base = (lh[0] if lh else 0.0) + (rh[0] if rh else 0.0)
            for t in keep:
                merged.append((base + float(vec[t]),
                               (lh[1] if lh else ()) + (t,) + (rh[1] if rh else ())))
        merged.sort(key=lambda h: (-h[0], h[1]))
        spans = [s for s in spans if s is not left and s is not right]
        spans.append([left[0] if left else p, right[1] if right else p, merged[:beam]])
        steps.append((p, c, best))
    score, ids = spans[0][2][0]
    return list(ids), score, steps


def ref_update(rows: dict, feats, g: int, c: int, step: float, T: int):
    for f in feats:
        row = rows.get(f)
        if row is None:
            row = rows[f] = np.zeros(T)
        row[g] += step
        row[c] -= step


def ref_train(corpus, lexicon, rules, topts: TrainOptions, cfg: FeatureConfig,
              update=ref_update):
    """(raw rows by feature string, update count, epoch accuracies)."""
    tag_set = {tok.gold_tag for tok in corpus.tokens()}
    if lexicon is not None:
        tag_set |= lexicon.all_tags()
    inventory = TagInventory(sorted(tag_set))
    tags, T = inventory.tags, len(inventory)
    cfg = cfg.for_training()
    rows, updates, accuracies = {}, 0, []
    for _ in range(topts.epochs):
        total = clean = 0
        for sent in corpus:
            cands, suggested = _lexicon_pass(sent, inventory, lexicon, rules, cfg,
                                             topts.candidate_source)
            gold = [inventory.id(tok.gold_tag) for tok in sent.tokens]
            dirty, guard = set(), 0

            def choose(p, c, pairs):
                nonlocal guard, updates
                if c == gold[p] or guard > 50 + 10 * len(gold):
                    return (gold[p],)
                dirty.add(p)
                guard += 1
                (_, _, vec, feats), = pairs
                tau = min(topts.aggressiveness,
                          (topts.margin + float(vec[c]) - float(vec[gold[p]]))
                          / (2.0 * len(feats)))
                update(rows, feats, gold[p], c, tau, T)
                updates += 1
                return None

            ref_search(sent.surfaces(), cands, suggested, cfg, tags, rows, 1, choose)
            total += len(gold)
            clean += len(gold) - len(dirty)
        accuracies.append(clean / total)
    return rows, updates, accuracies


def ref_decode(sentence, model, rows: dict, lexicon, rules, dopts: DecodeOptions):
    """Decode with `rows`, the model's averaged rows by feature string."""
    cand_ids, suggested = _lexicon_pass(sentence, model.inventory, lexicon, rules, model.cfg,
                                        dopts.candidate_source, dopts.hard_output_rules)
    return ref_search(sentence.surfaces(), cand_ids, suggested, model.cfg,
                      model.inventory.tags, rows, dopts.beam_size, lambda p, c, pairs: cand_ids[p])


TAGS = synthetic_tags(30)


@st.composite
def cases(draw):
    """(corpus, lexicon, rules, candidate source, FeatureConfig,
    TrainOptions): at most 30 tags, 25 tokens a sentence and 15 sentences.
    Every gold tag is in its word's lexicon entry; some words are out of
    the lexicon, and entries may hold tags no token has."""
    tags = TAGS[:draw(st.integers(1, 30))]
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 10)))]
    readings = {w: draw(st.lists(st.sampled_from(tags), min_size=1, max_size=4, unique=True))
                for w in vocab}
    sentences = draw(st.lists(st.lists(st.sampled_from(vocab), min_size=1, max_size=25),
                              min_size=1, max_size=15))
    corpus = Corpus(tuple(
        Sentence(tuple(Token(w, draw(st.sampled_from(readings[w]))) for w in words))
        for words in sentences))
    in_lexicon = draw(st.lists(st.booleans(), min_size=len(vocab), max_size=len(vocab)))
    lexicon = Lexicon({w: dict.fromkeys(readings[w])
                       for w, known in zip(vocab, in_lexicon) if known})
    rules = derive_safe_rules(corpus, lexicon)
    source = draw(st.sampled_from(CANDIDATE_SOURCES))
    cfg = FeatureConfig(use_lexicon_features=draw(st.booleans()),
                        lexicon_filter=draw(st.sampled_from(["none", "rules", "test-only"])))
    topts = TrainOptions(epochs=draw(st.integers(1, 3)),
                         aggressiveness=draw(st.sampled_from([0.25, 1.0, 2.0])),
                         margin=draw(st.sampled_from([0.5, 1.0])), candidate_source=source)
    return corpus, lexicon, rules, source, cfg, topts


class TestAgainstReference:
    @settings(max_examples=40)
    @given(cases())
    def test_training_and_decoding(self, case):
        corpus, lexicon, rules, source, cfg, topts = case
        model, accuracies = train(corpus, lexicon, rules, topts, cfg)
        rows, updates, ref_accuracies = ref_train(corpus, lexicon, rules, topts, cfg)
        names = list(model.feature_ids)
        assert ({names[fid]: row.tobytes() for fid, row in model.weights.items()}
                == {f: row.tobytes() for f, row in rows.items()})
        assert model.meta["updates"] == updates
        assert accuracies == model.meta["epoch_accuracy"] == ref_accuracies
        averaged = {f: row for f, fid in model.feature_ids.items()
                    if (row := model.averaged.get(fid)) is not None}
        for beam in (1, 2, 3, 5):
            for hard in (None, rules):
                dopts = DecodeOptions(beam_size=beam, candidate_source=source,
                                      hard_output_rules=hard)
                for s in corpus:
                    tags, score, trace, order = decode_with_trace(s, model, lexicon, rules, dopts)
                    ref_ids, ref_score, steps = ref_decode(s, model, averaged, lexicon, rules,
                                                           dopts)
                    assert tags == [model.inventory.tags[t] for t in ref_ids]
                    assert score.hex() == ref_score.hex()
                    assert order == [p for p, _, _ in steps]
                    assert [(t.position, t.tag_id, t.score) for t in trace] == steps


class TestTrainingGuard:
    def test_zero_steps_stop_at_the_guard(self, monkeypatch):
        """With every PA step 0.0 the weights never change, so the first
        wrong prediction of a sentence repeats until its guard, 51 + 10 n
        updates, is spent; the gold tags commit after that.  The first token
        of every sentence below has a gold tag other than the first of the
        inventory, which zero weights predict."""
        corpus = make_corpus(["a/B", "b/A", "c/C"], ["b/C", "a/B", "c/A", "a/B"],
                             ["c/B", "c/C", "b/A", "a/A"], ["a/C", "b/B", "c/B", "b/A", "a/C"])
        expected = sum(51 + 10 * len(s.tokens) for s in corpus)
        assert expected == 364
        update = _RawRows.update
        calls = 0

        def zero_step(self, fids, g, c, step):
            nonlocal calls
            calls += 1
            assert calls <= expected, "training did not stop at the guard"
            update(self, fids, g, c, 0.0)
        monkeypatch.setattr(_RawRows, "update", zero_step)
        cfg = FeatureConfig(use_lexicon_features=False)
        model, accuracies = train(corpus, topts=TrainOptions(epochs=1), cfg=cfg)
        assert model.meta["updates"] == calls == expected

        _, updates, ref_accuracies = ref_train(
            corpus, None, None, TrainOptions(epochs=1), cfg,
            update=lambda rows, feats, g, c, step, T: ref_update(rows, feats, g, c, 0.0, T))
        assert updates == expected
        assert ref_accuracies == accuracies


def trained(case, share: int):
    """Training under `_SPARSE_SHARE = share`: (model, epoch accuracies, the
    raw rows in order as (feature, bytes) pairs, the model file's bytes)."""
    corpus, lexicon, rules, _, cfg, topts = case
    with mock.patch.object(tagger_mod, "_SPARSE_SHARE", share), \
            tempfile.TemporaryDirectory() as tmp:
        model, accuracies = train(corpus, lexicon, rules, topts, cfg)
        path = os.path.join(tmp, "model.json")
        model.save(path)
        with open(path, "rb") as fh:
            data = fh.read()
    names = list(model.feature_ids)
    raw = [(names[fid], row.tobytes()) for fid, row in model.weights.items()]
    return model, accuracies, raw, data


class TestSparseRows:
    """Raw rows that stay `{tag id: value}` dicts until they hold more than
    a few cells train exactly as rows that are dense from their creation,
    and as the reference.  Below 128 tags every row is dense, so these
    tests patch `_SPARSE_SHARE` to keep rows sparse."""

    DENSE = 2 ** 40  # T // DENSE is 0: every row is dense from its creation

    def check(self, case, share: int) -> dict:
        """Assert the sparse run equals the dense run and the reference;
        returns the sparse run's raw rows."""
        corpus, lexicon, rules, _, cfg, topts = case
        dense_model, *dense = trained(case, self.DENSE)
        model, accuracies, raw, data = trained(case, share)
        assert [accuracies, raw, data] == dense
        assert model.meta == dense_model.meta
        assert all(type(row) is not dict for row in dense_model.weights.rows.values())
        rows, updates, ref_accuracies = ref_train(corpus, lexicon, rules, topts, cfg)
        assert dict(raw) == {f: row.tobytes() for f, row in rows.items()}
        assert model.meta["updates"] == updates
        assert accuracies == model.meta["epoch_accuracy"] == ref_accuracies
        return model.weights.rows

    @settings(max_examples=25)
    @given(cases(), st.integers(2, 4))
    def test_random_corpora(self, case, cells):
        """A dict row holds at most about `cells` cells."""
        corpus, lexicon = case[:2]
        T = len({tok.gold_tag for tok in corpus.tokens()} | lexicon.all_tags())
        self.check(case, max(1, T // cells))

    def test_dict_and_converted_rows(self):
        cfg = SyntheticConfig(tag_count=30, vocab_size=60, sentence_count=20,
                              ambiguity_rate=0.3)
        corpus, lexicon = generate_synthetic(cfg, 5)
        T = len(lexicon.all_tags() | {tok.gold_tag for tok in corpus.tokens()})
        case = (corpus, lexicon, derive_safe_rules(corpus, lexicon), "all",
                FeatureConfig(), TrainOptions(epochs=2))
        rows = self.check(case, T // 3)  # a dict row holds at most 3 cells
        kinds = [type(row) is dict for row in rows.values()]
        assert any(kinds) and not all(kinds)
        assert all(len(row) <= 3 for row in rows.values() if type(row) is dict)
