import base64
import hashlib
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag.corpus import Corpus, Sentence, Token
from morphtag.errors import ConfigError, DataError
from morphtag.features import FeatureConfig, tag_features
from morphtag.lexicon import Lexicon
from morphtag import rules as rules_mod, tagger as tagger_mod
from morphtag.rules import RuleCascade, parse_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_synthetic,
                                split_corpus)
from morphtag.tagger import (DecodeOptions, Model, SparseTable, TrainOptions, _RawRows,
                             _lexicon_pass, _top_tags, decode, decode_with_trace, rescore,
                             train)
from morphtag.tagset import TagInventory


def _b64(array: np.ndarray) -> str:
    """A model file's base64 text of an array, in the array's own dtype."""
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    """The array of `dtype` whose base64 text a model file holds."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def sent(*surfaces):
    return Sentence(tuple(Token(s, None) for s in surfaces))


def small_setup(seed=3, sentences=30, tags=8, vocab=40, ambiguity=0.3):
    cfg = SyntheticConfig(tag_count=tags, vocab_size=vocab,
                          sentence_count=sentences, ambiguity_rate=ambiguity)
    return generate_synthetic(cfg, seed)


def rounded(table: SparseTable, scale: float = 5.0) -> SparseTable:
    """The table with every stored cell scaled and rounded to an integer, so
    that many tags tie exactly; small cells become zeros, -0.0 included."""
    return SparseTable(table.T, table.offsets, table.tag_ids, np.round(table.cells * scale))


def dense_table(T: int, rows: dict, R: int = 0) -> SparseTable:
    """A SparseTable of at least R rows storing every cell of the given
    dense rows, zeros and -0.0 included; the other rows are empty."""
    R = max(R, max(rows, default=-1) + 1)
    counts = [T if fid in rows else 0 for fid in range(R)]
    return SparseTable(T, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
                       list(range(T)) * len(rows),
                       [c for fid in sorted(rows) for c in rows[fid]])


class TestOptions:
    def test_train_validation(self):
        with pytest.raises(ConfigError):
            TrainOptions(epochs=0)
        with pytest.raises(ConfigError):
            TrainOptions(aggressiveness=0.0)
        with pytest.raises(ConfigError):
            TrainOptions(margin=-1.0)
        with pytest.raises(ConfigError):
            TrainOptions(candidate_source="bogus")

    @pytest.mark.parametrize("field, value", [
        ("aggressiveness", float("nan")), ("margin", float("nan")),
        ("margin", float("inf"))])
    def test_train_rejects_non_finite(self, field, value):
        """NaN would pass a `<= 0` check: NaN C turns the weights NaN, and
        NaN margin makes every step tau = C."""
        with pytest.raises(ConfigError):
            TrainOptions(**{field: value})

    def test_uncapped_steps_allowed(self):
        corpus = make_corpus([("a", "A"), ("b", "B")], [("b", "B"), ("a", "A")])
        model, _ = train(corpus, topts=TrainOptions(epochs=2, aggressiveness=float("inf")),
                         cfg=FeatureConfig(use_lexicon_features=False))
        assert model.meta["updates"] > 0
        assert all(np.isfinite(row).all() for row in model.averaged.values())

    def test_decode_validation(self):
        with pytest.raises(ConfigError):
            DecodeOptions(beam_size=0)
        with pytest.raises(ConfigError):
            DecodeOptions(candidate_source="bogus")


class TestTraining:
    def test_memorizes_small_corpus(self):
        corpus = make_corpus(["аз/P1", "чета/V1"], ["тя/P3", "чете/V3"],
                             ["аз/P1", "спя/V1"])
        model, _ = train(corpus, topts=TrainOptions(epochs=8),
                         cfg=FeatureConfig(use_lexicon_features=False))
        for s in corpus.sentences:
            tags, _ = decode(s, model)
            assert tags == [t.gold_tag for t in s.tokens]

    def test_epoch_accuracy_shape(self):
        corpus, lex = small_setup()
        model, acc = train(corpus, lex, topts=TrainOptions(epochs=4))
        assert len(acc) == 4
        assert all(0.0 <= a <= 1.0 for a in acc)
        assert acc[-1] >= acc[0]
        assert model.meta["epoch_accuracy"] == acc

    def test_bit_deterministic(self):
        corpus, lex = small_setup(sentences=15)
        m1, a1 = train(corpus, lex, topts=TrainOptions(epochs=2))
        m2, a2 = train(corpus, lex, topts=TrainOptions(epochs=2))
        assert a1 == a2
        assert m1.feature_ids == m2.feature_ids
        assert set(m1.weights) == set(m2.weights)
        for fid in m1.weights:
            assert np.array_equal(m1.weights[fid], m2.weights[fid])
        for fid in m1.averaged:
            assert np.array_equal(m1.averaged[fid], m2.averaged[fid])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train(make_corpus())

    def test_untagged_token_rejected(self):
        with pytest.raises(DataError):
            train(make_corpus(["а"]))

    def test_gold_outside_candidates_rejected(self):
        lex = make_lexicon({"а": ["X"]})
        corpus = make_corpus(["а/Y"])
        with pytest.raises(DataError) as exc:
            train(corpus, lex, topts=TrainOptions(candidate_source="lexicon"))
        assert "а" in str(exc.value)

    def test_pa_postcondition(self, update_log):
        corpus, lex = small_setup(sentences=20)
        topts = TrainOptions(epochs=2, aggressiveness=0.5, margin=1.0)
        train(corpus, lex, topts=topts)
        assert update_log
        assert any(r.tau < topts.aggressiveness for r in update_log)
        for rec in update_log:
            assert 0.0 < rec.tau <= topts.aggressiveness + 1e-12
            if rec.tau < topts.aggressiveness:
                assert rec.margin_after >= topts.margin - 1e-9

    def test_update_promotes_gold(self, update_log):
        corpus = make_corpus(["а/X", "а/Y"])
        train(corpus, topts=TrainOptions(epochs=1),
              cfg=FeatureConfig(use_lexicon_features=False))
        for rec in update_log:
            assert rec.gold_id != rec.predicted_id


class TestDivergence:
    """Uncapped steps with a margin of 1e308 overflow the weights.  Training
    then raises ConfigError naming both options instead of crashing or
    returning a model that Model.load would reject."""

    @staticmethod
    def _train(seed, sentences):
        corpus, _ = small_setup(seed=seed, sentences=sentences, tags=6, vocab=30)
        return train(corpus, topts=TrainOptions(epochs=2, aggressiveness=math.inf, margin=1e308),
                     cfg=FeatureConfig(use_lexicon_features=False))

    def test_update_meets_a_non_finite_score(self, update_log):
        # Unchecked, the NaN scores leave no best action, and the search
        # indexes an empty one.
        with pytest.raises(ConfigError, match="aggressiveness .* margin"):
            self._train(1, 10)
        assert update_log
        assert all(math.isfinite(rec.tau) for rec in update_log)

    def test_averaged_cell_not_finite(self):
        # Every update's scores and step are finite, but an averaged cell
        # is not.
        with pytest.raises(ConfigError, match="aggressiveness .* margin"):
            self._train(4, 20)

    def test_no_finite_best_score(self, monkeypatch):
        # A NaN step turns both columns of the position's rows NaN, so the
        # one position of the sentence has no finite best score left.
        update = _RawRows.update
        monkeypatch.setattr(_RawRows, "update",
                            lambda self, fids, g, c, step: update(self, fids, g, c, math.nan))
        corpus = make_corpus(["а/Y"], ["б/X"])
        with pytest.raises(ConfigError, match="aggressiveness .* margin"):
            train(corpus, topts=TrainOptions(epochs=1),
                  cfg=FeatureConfig(use_lexicon_features=False))


class TestAveragedAccumulator:
    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 31))
    def test_matches_snapshot_mean(self, seed):
        """PA-shaped updates (a step added to one cell of a row and taken
        from another) average to the mean of the post-update snapshots."""
        rng = random.Random(seed)
        T = 3
        fids = list(range(5))
        weights = _RawRows(T)
        snapshots = []
        for _ in range(rng.randint(1, 200)):
            g, c = rng.sample(range(T), 2)
            weights.update(rng.sample(fids, rng.randint(1, 3)), g, c, rng.uniform(0, 1))
            snapshots.append(dict(weights.items()))
        averaged = weights.finalize(len(fids))
        k = len(snapshots)
        assert set(averaged) == set(weights)
        for fid, row in weights.items():
            expect = sum(s.get(fid, np.zeros(T)) for s in snapshots) / k
            assert np.allclose(averaged[fid], expect, atol=1e-9)

    def test_no_updates_empty(self):
        weights = _RawRows(2)
        weights.rows[0] = np.ones(2)
        assert weights.finalize(1) == {}


class TestRawRows:
    @pytest.mark.parametrize("tags, vocab", [(127, 400), (128, 1000)])
    def test_weights_view(self, tags, vocab, tmp_path):
        """`model.weights` reads every raw row, dict or dense, as a fresh
        dense row in the raw table's order.  Below 128 tags every row is
        dense; from 128 tags most rows stay dicts."""
        corpus, lex = small_setup(sentences=10, tags=tags, vocab=vocab)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=1))
        T, rows = len(model.inventory), model.weights.rows
        assert T == tags
        assert list(model.weights) == list(rows) and len(model.weights) == len(rows) > 0
        dicts = sum(type(row) is dict for row in rows.values())
        assert dicts > len(rows) / 2 if T >= 128 else dicts == 0
        before = {fid: model.weights[fid].tobytes() for fid in rows}
        for fid, row in rows.items():
            read = model.weights[fid]
            assert read.dtype == np.float64 and read.shape == (T,)
            assert read is not model.weights[fid]
            if type(row) is dict:
                assert np.flatnonzero(read).tolist() == sorted(t for t, v in row.items() if v)
                assert [read[t] for t in row] == list(row.values())
            else:
                assert read is not row and read.tobytes() == row.tobytes()
            read += 1.0
        assert {fid: model.weights[fid].tobytes() for fid in rows} == before
        # Averaging released its credits; the count of updates stays.
        assert model.weights.u == {} and model.weights.k == model.meta["updates"] > 0
        model.save(tmp_path / "model.json")
        assert Model.load(tmp_path / "model.json").weights == {}


class TestTopTags:
    """_top_tags returns the ids of argmax at beam 1 and of the stable
    argsort of -scores above it, and the scores of those cells."""

    cell = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan,
                                      1e308, -1e308]),
                     st.floats())

    @settings(max_examples=400)
    @given(st.lists(cell, min_size=1, max_size=8), st.integers(1, 10))
    def test_argmax_and_stable_argsort(self, cells, beam):
        scores = np.array(cells)
        if beam == 1:
            expect = [int(scores.argmax())]
        else:
            expect = np.argsort(-scores, kind="stable")[:beam].tolist()
        top = _top_tags(scores.copy(), beam)
        assert [c for _, c in top] == expect
        assert np.array([s for s, _ in top]).tobytes() == scores[expect].tobytes()

    def test_many_ties_resolve_by_tag_id(self):
        scores = np.array([1.0, 3.0, 3.0, -0.0, 3.0, 0.0, 1.0])
        assert _top_tags(scores.copy(), 4) == [(3.0, 1), (3.0, 2), (3.0, 4), (1.0, 0)]
        assert _top_tags(scores.copy(), 1) == [(3.0, 1)]

    def test_overflowed_sums_fall_back_to_the_sort(self):
        scores = np.array([1.0, -np.inf, np.nan, -np.inf, np.inf])
        assert [c for _, c in _top_tags(scores.copy(), 3)] == [4, 0, 1]
        assert [c for _, c in _top_tags(scores.copy(), 1)] == [2]  # argmax ranks NaN first
        assert [c for _, c in _top_tags(np.array([2.0, -np.inf, -np.inf]), 3)] == [0, 1, 2]

    def test_search_same_as_with_a_copying_selection(self, monkeypatch):
        """Beam-3 decoding over the full inventory, on weights rounded so
        that many tags tie, gives the same output when the selection works
        on a copy of each pair's sums."""
        corpus, lex = small_setup(seed=5, sentences=30, tags=10, vocab=60)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        model.averaged = rounded(model.averaged)

        def outputs():
            return repr([decode_with_trace(s, model, lex, dopts=DecodeOptions(beam_size=3))
                         for s in corpus.sentences])
        fast = outputs()
        top_tags = tagger_mod._top_tags
        monkeypatch.setattr(tagger_mod, "_top_tags",
                            lambda scores, beam: top_tags(scores.copy(), beam))
        assert outputs() == fast


class TestDecoding:
    def test_easiest_first_commits_global_best(self):
        corpus, lex = small_setup(sentences=25)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=3))
        s = corpus.sentences[0]
        _, _, trace, order = decode_with_trace(s, model, lex)
        assert sorted(order) == list(range(len(s.tokens)))
        for step in trace:
            assert step.position in step.available
            best = max(step.available.values())
            assert step.score == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("beam", [1, 3])
    def test_trace_lists_the_untagged_positions(self, beam):
        """Each trace step commits the next position of the commit order,
        and its `available` holds exactly the positions still untagged."""
        corpus, lex = small_setup(sentences=25)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=3))
        for s in corpus.sentences[:8]:
            _, _, trace, order = decode_with_trace(s, model, lex,
                                                   dopts=DecodeOptions(beam_size=beam))
            assert [step.position for step in trace] == order
            for i, step in enumerate(trace):
                assert set(step.available) == set(range(len(s.tokens))) - set(order[:i])

    @pytest.mark.parametrize("beam", [1, 3])
    def test_ties_commit_in_position_order(self, beam):
        """An untrained model scores every action 0.0, so every step is a
        tie, which the earliest untagged position wins.  The search keeps
        its untagged positions in position order, also those it enters
        again after a commit next to them."""
        model = Model(TagInventory(["A", "B", "C"]), FeatureConfig(use_lexicon_features=False))
        s = sent("a", "b", "a", "c", "d", "b")
        _, score, trace, order = decode_with_trace(s, model,
                                                   dopts=DecodeOptions(beam_size=beam))
        assert score == 0.0
        assert order == list(range(len(s.tokens)))
        for step in trace:
            assert list(step.available) == list(range(step.position, len(s.tokens)))
            assert step.tag_id == 0 and set(step.available.values()) == {0.0}

    def test_score_matches_rescore_replay(self):
        """Rescoring reads the model's config as decoding does, so a
        test-only model replays with its suggestions rule-filtered."""
        corpus, lex = small_setup(sentences=25)
        cascade = derive_safe_rules(corpus, lex)
        assert cascade.rules
        for lexicon_filter, rules in (("none", None), ("test-only", cascade)):
            model, _ = train(corpus, lex, rules, TrainOptions(epochs=3),
                             FeatureConfig(lexicon_filter=lexicon_filter))
            assert model.cfg.lexicon_filter == lexicon_filter
            for s in corpus.sentences[:8]:
                for beam in (1, 3):
                    tags, score, _, order = decode_with_trace(
                        s, model, lex, rules, DecodeOptions(beam_size=beam))
                    replay = rescore(s, tags, order, model, lex, rules)
                    assert replay == pytest.approx(score, abs=1e-9)

    def test_rescore_rejects_a_bad_order_or_tag_count(self):
        corpus, lex = small_setup(sentences=10)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=1))
        s = next(s for s in corpus.sentences if len(s.tokens) >= 2)
        tags, _, _, order = decode_with_trace(s, model, lex)
        for bad in (order[:-1], order + order[:1], [order[0]] * len(order),
                    [p + 1 for p in order]):
            with pytest.raises(ValueError, match="not a permutation of positions"):
                rescore(s, tags, bad, model, lex)
        for bad in (tags[:-1], tags + tags[:1]):
            with pytest.raises(ValueError, match="length mismatch"):
                rescore(s, bad, order, model, lex)
        with pytest.raises(ValueError, match="tag 'Q999' is not in the tag inventory"):
            rescore(s, tags[:-1] + ["Q999"], order, model, lex)

    def test_wide_beam_exact_on_two_tokens(self):
        # with an unpruned beam the reported score must equal the best
        # replay over all tag pairs under the chosen commit order
        corpus, lex = small_setup(sentences=25, ambiguity=0.5)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        pairs = [s for s in corpus.sentences if len(s.tokens) == 2][:5]
        inventory = model.inventory.tags
        for s in pairs:
            tags, score, _, order = decode_with_trace(
                s, model, lex, dopts=DecodeOptions(beam_size=10 ** 6))
            best = max(rescore(s, [t0, t1], order, model, lex)
                       for t0 in inventory for t1 in inventory)
            assert score == pytest.approx(best, abs=1e-9)
            assert rescore(s, tags, order, model, lex) == pytest.approx(
                score, abs=1e-9)

    def test_decode_deterministic(self):
        corpus, lex = small_setup(sentences=10)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        s = corpus.sentences[0]
        assert decode(s, model, lex) == decode(s, model, lex)

    @pytest.mark.parametrize("source, hard", [
        ("all", False), ("lexicon", False), ("lexicon", True)])
    def test_decode_equals_traced_decode(self, source, hard):
        corpus, lex = small_setup(sentences=20)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        cascade = derive_safe_rules(corpus, lex) if hard else None
        assert cascade is None or cascade.rules
        for beam in (1, 3):
            dopts = DecodeOptions(beam_size=beam, candidate_source=source,
                                  hard_output_rules=cascade)
            for s in corpus.sentences[:6]:
                assert (decode(s, model, lex, cascade, dopts)
                        == decode_with_trace(s, model, lex, cascade, dopts)[:2])

    def test_lexicon_source_restricts_output(self):
        corpus, lex = small_setup(sentences=20)
        model, _ = train(corpus, lex,
                         topts=TrainOptions(epochs=1, candidate_source="lexicon"))
        for s in corpus.sentences[:5]:
            tags, _ = decode(s, model, lex,
                             dopts=DecodeOptions(candidate_source="lexicon"))
            for tok, tag in zip(s.tokens, tags):
                assert tag in lex.tags(tok.surface)

    def test_hard_rules_constrain_output(self):
        lex = make_lexicon({"а": ["X", "Y"], "б": ["Z"]})
        corpus = make_corpus(["а/Y", "б/Z"], ["а/Y"])
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=3))
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN а\nTHEN RETAIN X\nEND\n")
        tags, _ = decode(corpus.sentences[0], model, lex,
                         dopts=DecodeOptions(hard_output_rules=cascade))
        assert tags[0] == "X"

    def test_oov_falls_back_to_full_inventory(self):
        lex = make_lexicon({"а": ["X"]})
        corpus = make_corpus(["а/X"])
        model, _ = train(corpus, lex)
        tags, _ = decode(sent("нов"), model, lex,
                         dopts=DecodeOptions(candidate_source="lexicon"))
        assert tags[0] in model.inventory.tags


class TestCandidateInputs:
    """A candidate source, hard output rules, lexicon features or
    rule-filtered lexicon features without the lexicon or the rules they
    read raise ConfigError in training and in decoding."""

    RULES = parse_rules("RULE r\nIF 0 SURFACE-IN x\nTHEN RETAIN T0\nEND\n")

    @pytest.mark.parametrize("source, has_lexicon, has_rules, message", [
        ("lexicon", False, True, "candidate source 'lexicon' needs a lexicon"),
        ("lexicon+rules", False, True, "candidate source 'lexicon+rules' needs a lexicon"),
        ("lexicon+rules", True, False, "candidate source 'lexicon+rules' needs rules"),
    ])
    def test_source_needs_its_inputs(self, source, has_lexicon, has_rules, message):
        corpus, lex = small_setup(sentences=6)
        lex_arg = lex if has_lexicon else None
        rules_arg = self.RULES if has_rules else None
        with pytest.raises(ConfigError, match=re.escape(message)):
            train(corpus, lex_arg, rules_arg, TrainOptions(epochs=1, candidate_source=source))
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=1))
        dopts = DecodeOptions(candidate_source=source)
        for fn in (decode, decode_with_trace):
            with pytest.raises(ConfigError, match=re.escape(message)):
                fn(corpus.sentences[0], model, lex_arg, rules_arg, dopts)

    @pytest.mark.parametrize("hard", [RULES, RuleCascade()])
    def test_hard_rules_need_a_lexicon(self, hard):
        """Hard rules restrict the output to lexicon sets, so even an empty
        cascade needs a lexicon."""
        corpus, lex = small_setup(sentences=6)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=1))
        dopts = DecodeOptions(hard_output_rules=hard)
        for fn in (decode, decode_with_trace):
            with pytest.raises(ConfigError, match="hard output rules need a lexicon"):
                fn(corpus.sentences[0], model, None, hard, dopts)
            fn(corpus.sentences[0], model, lex, hard, dopts)

    def test_rule_filtered_features_need_rules(self):
        """Lexicon features filtered by the cascade need rules in training,
        decoding and rescoring, so no model records "rules" for features that
        no cascade filtered."""
        corpus, lex = small_setup(sentences=6)
        cfg = FeatureConfig(lexicon_filter="rules")
        message = "rule-filtered lexicon features need rules"
        with pytest.raises(ConfigError, match=message):
            train(corpus, lex, None, TrainOptions(epochs=1), cfg)
        model, _ = train(corpus, lex, self.RULES, TrainOptions(epochs=1), cfg)
        s = corpus.sentences[0]
        for fn in (decode, decode_with_trace):
            with pytest.raises(ConfigError, match=message):
                fn(s, model, lex)
        tags, _, _, order = decode_with_trace(s, model, lex, self.RULES)
        with pytest.raises(ConfigError, match=message):
            rescore(s, tags, order, model, lex)
        # With no lexicon features there is nothing to filter.
        train(corpus, lex, None, TrainOptions(epochs=1),
              FeatureConfig(use_lexicon_features=False, lexicon_filter="rules"))

    def test_lexicon_features_need_a_lexicon(self):
        """Without a lexicon every token would get the same `lex=<unk>`
        feature, and the model would record lexicon features it never read."""
        corpus, lex = small_setup(sentences=6)
        message = "lexicon features need a lexicon"
        with pytest.raises(ConfigError, match=message):
            train(corpus, topts=TrainOptions(epochs=1))
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=1))
        s = corpus.sentences[0]
        for fn in (decode, decode_with_trace):
            with pytest.raises(ConfigError, match=message):
                fn(s, model)
        tags, _, _, order = decode_with_trace(s, model, lex)
        with pytest.raises(ConfigError, match=message):
            rescore(s, tags, order, model)


class TestLexiconPass:
    """One step decides what the lexicon and the rule cascade allow at each
    position, for the candidates and the lexicon features alike."""

    INVENTORY = TagInventory(["Ta", "Tx", "Ty"])
    SOFT = parse_rules("RULE s\nIF 0 SURFACE-IN да\nTHEN RETAIN Ta\nEND\n")
    HARD = parse_rules("RULE h\nIF 0 SURFACE-IN да\nTHEN RETAIN Tx\nEND\n")

    def lexicon(self):
        return make_lexicon({"да": ["Ta", "Tx"]})

    def test_filter_off_ignores_rules(self):
        cands, suggested = _lexicon_pass(sent("да"), self.INVENTORY, self.lexicon(),
                                         self.SOFT, FeatureConfig(), "lexicon+rules")
        assert suggested == [frozenset({"Ta", "Tx"})]
        assert cands == [[0]]

    def test_hard_rules_override_candidates_only(self):
        cfg = FeatureConfig(lexicon_filter="rules")
        cands, suggested = _lexicon_pass(sent("да"), self.INVENTORY, self.lexicon(),
                                         self.SOFT, cfg, "all", self.HARD)
        assert cands == [[1]]
        assert suggested == [frozenset({"Ta"})]
        # An empty cascade filters nothing: the candidates are the lexicon sets.
        cands, _ = _lexicon_pass(sent("да"), self.INVENTORY, self.lexicon(),
                                 None, FeatureConfig(), "all", RuleCascade())
        assert cands == [[0, 1]]

    def test_oov_enters_cascade_as_full_inventory(self):
        oov = parse_rules("RULE o\nIF 0 SURFACE-IN х\nTHEN RETAIN Ty\nEND\n")
        cfg = FeatureConfig(lexicon_filter="rules")
        cands, suggested = _lexicon_pass(sent("х", "да"), self.INVENTORY, self.lexicon(),
                                         oov, cfg, "lexicon+rules")
        assert cands == [[2], [0, 1]]
        assert suggested == [None, frozenset({"Ta", "Tx"})]
        cands, _ = _lexicon_pass(sent("х"), self.INVENTORY, self.lexicon(), None,
                                 FeatureConfig(), "lexicon")
        assert cands == [[0, 1, 2]]

    @pytest.mark.parametrize("source", ["all", "lexicon"])
    def test_full_inventory_list_is_shared(self, source):
        """Every full-inventory candidate list of one inventory is the same
        list, so training holds one per inventory, not one per sentence."""
        lex = self.lexicon()
        first, _ = _lexicon_pass(sent("х", "да"), self.INVENTORY, lex, None,
                                 FeatureConfig(), source)
        second, _ = _lexicon_pass(sent("х"), self.INVENTORY, lex, None, FeatureConfig(), source)
        assert first[0] is second[0] is self.INVENTORY.ids
        assert second[0] == list(range(len(self.INVENTORY)))

    def test_full_tag_set_is_shared(self, monkeypatch):
        """Out-of-lexicon tokens of every sentence enter the cascade as the
        inventory's one tag set, not a set built per sentence."""
        full_sets = []
        cascade = tagger_mod.apply_cascade

        def recording(rules, sentence, sets):
            full_sets.extend(tags for tags in sets if len(tags) == len(self.INVENTORY))
            return cascade(rules, sentence, sets)
        monkeypatch.setattr(tagger_mod, "apply_cascade", recording)
        for s in (sent("х", "да"), sent("у")):
            _lexicon_pass(s, self.INVENTORY, self.lexicon(), self.SOFT, FeatureConfig(),
                          "lexicon+rules")
        first, second = full_sets
        assert first is second is self.INVENTORY.tag_set
        assert first == frozenset(self.INVENTORY.tags)

    def test_one_lookup_and_cascade_run_per_sentence(self, monkeypatch):
        corpus, lex = small_setup(seed=5, sentences=12, tags=8, vocab=40)
        cascade = derive_safe_rules(corpus, lex)
        assert len(cascade) > 0
        calls = Counter()
        cascade_fn, tags_fn = rules_mod.apply_cascade, Lexicon.tags

        def counting_cascade(*args):
            calls["apply_cascade"] += 1
            return cascade_fn(*args)

        def counting_tags(self, surface):
            calls["Lexicon.tags"] += 1
            return tags_fn(self, surface)
        monkeypatch.setattr(rules_mod, "apply_cascade", counting_cascade)
        monkeypatch.setattr(tagger_mod, "apply_cascade", counting_cascade)
        monkeypatch.setattr(Lexicon, "tags", counting_tags)
        cfg = FeatureConfig(lexicon_filter="rules")
        model, _ = train(corpus, lex, cascade,
                         TrainOptions(epochs=2, candidate_source="lexicon+rules"), cfg)
        assert calls == {"apply_cascade": len(corpus.sentences),
                         "Lexicon.tags": sum(len(s.tokens) for s in corpus)}
        calls.clear()
        s = corpus.sentences[0]
        decode_with_trace(s, model, lex, cascade,
                          DecodeOptions(candidate_source="lexicon+rules",
                                        hard_output_rules=cascade))
        assert calls == {"apply_cascade": 1, "Lexicon.tags": len(s.tokens)}


class TestScoreCacheExact:
    """Every score vector the search holds equals the sum of all its weight
    rows from +0.0, byte for byte, at every column the search reads, and its
    tag-context ids are those of the pair that reads it.  Decoding adds the
    tag-context rows to each position's static sum and reads every column.
    Pairs that see the same tags share one vector, and a position's next
    entry can share its previous entry's, so every pair is checked when
    `_entry` receives it: a shared vector is checked wherever it is read.
    Training sums the two columns an update changes again instead of
    rescoring, only at the positions that can read one of them, and rebuilds
    the static sums for every search: a skipped position stays exact at its
    candidates, but not at the columns outside them."""

    @staticmethod
    def _fresh(scorer, i, dynamic) -> np.ndarray:
        return scorer.score_vector(scorer.static_ids[i] + dynamic)

    @staticmethod
    def _context_ids(scorer, i, lh, rh) -> list[int]:
        """The ids of the known tag-context features of pair (lh, rh) at i.
        A hypothesis holds the tags of its whole span, so its last (first)
        two tags are the ones i sees at -2, -1 (+1, +2)."""
        tags = scorer.model.inventory.tags
        left = [tags[t] for t in lh[1][-2:]]
        right = [tags[t] for t in rh[1][:2]]
        ids = scorer.model.feature_ids
        return [ids[f] for f in tag_features(scorer.words, i, left, right) if f in ids]

    def _check_entries(self, monkeypatch, checked, columns):
        """Check every pair of every `_entry` call at `columns(ids)`, and
        count the `score` calls and the pairs checked."""
        made = {}  # id(score vector) -> (scorer, position) of the call that made it
        score, entry = tagger_mod._SentenceScorer.score, tagger_mod._entry

        def recording(scorer, i, left=(), right=()):
            vec, dynamic = score(scorer, i, left, right)
            made[id(vec)] = scorer, i
            checked["scores"] += 1
            return vec, dynamic

        def checking(pairs, ids, T):
            cols = columns(ids)
            for lh, rh, vec, dynamic in pairs:
                scorer, i = made[id(vec)]
                assert dynamic == self._context_ids(scorer, i, lh, rh)
                assert vec[cols].tobytes() == self._fresh(scorer, i, dynamic)[cols].tobytes()
                checked["pairs"] += 1
            checked["entries"] += 1
            return entry(pairs, ids, T)
        monkeypatch.setattr(tagger_mod._SentenceScorer, "score", recording)
        monkeypatch.setattr(tagger_mod, "_entry", checking)

    def _setup(self, source):
        corpus, lex = small_setup(seed=5, sentences=20, tags=10, vocab=60)
        cascade = derive_safe_rules(corpus, lex) if source == "lexicon+rules" else None
        cfg = FeatureConfig(lexicon_filter="rules" if cascade else "none")
        return corpus, lex, cascade, cfg

    @pytest.mark.parametrize("source", ["lexicon+rules", "all"])
    @pytest.mark.parametrize("beam", [1, 3])
    def test_decoding(self, source, beam, monkeypatch):
        corpus, lex, cascade, cfg = self._setup(source)
        model, _ = train(corpus, lex, cascade,
                         TrainOptions(epochs=1, candidate_source=source), cfg)
        checked = Counter()
        self._check_entries(monkeypatch, checked, lambda ids: slice(None))
        dopts = DecodeOptions(beam_size=beam, candidate_source=source,
                              hard_output_rules=cascade)
        for s in corpus.sentences:
            decode_with_trace(s, model, lex, cascade, dopts)
        assert checked["scores"] > sum(len(s.tokens) for s in corpus)
        assert checked["pairs"] > checked["scores"]  # some pairs shared a vector

    @pytest.mark.parametrize("source", ["lexicon+rules", "all"])
    def test_training(self, source, monkeypatch):
        """Cached vectors and static sums are compared at the position's
        candidates, which are every column for the full inventory.  The
        test counts the entries each refresh recomputes and the ones it
        skips, and checks that a skipped entry reads neither changed
        column.  Training searches at beam 1, so an entry that `_refresh`
        did not make and that scored nothing reads its position's previous
        vector, refreshed by the updates since it was scored."""
        corpus, lex, cascade, cfg = self._setup(source)
        checked = Counter()
        self._check_entries(monkeypatch, checked, lambda ids: ids)
        refreshed = set()
        scorer_refresh = tagger_mod._SentenceScorer.refresh

        def recording_refresh(scorer, i, pairs, g, c):
            refreshed.add(i)
            scorer_refresh(scorer, i, pairs, g, c)
        monkeypatch.setattr(tagger_mod._SentenceScorer, "refresh", recording_refresh)
        refresh = tagger_mod._refresh

        def checking_refresh(scorer, cache, cand_ids, g, c):
            refreshed.clear()
            refresh(scorer, cache, cand_ids, g, c)
            checked["updates"] += 1
            for q, (best, best_c, pairs) in cache.items():
                ids = cand_ids[q]
                if q in refreshed:
                    checked["refreshed"] += 1
                else:
                    checked["skipped"] += 1
                    assert len(ids) < scorer.T and g not in ids and c not in ids
                static = scorer.score_vector(scorer.static_ids[q])
                assert scorer.static_sums[q][ids].tobytes() == static[ids].tobytes()
                (_, _, vec, dynamic), = pairs  # training searches at beam 1
                assert vec[ids].tobytes() == self._fresh(scorer, q, dynamic)[ids].tobytes()
                top = max(vec[t] for t in ids)
                assert (best, best_c) == (top, min(t for t in ids if vec[t] == top))
        monkeypatch.setattr(tagger_mod, "_refresh", checking_refresh)
        model, _ = train(corpus, lex, cascade,
                         TrainOptions(epochs=2, candidate_source=source), cfg)
        assert checked["updates"] == model.meta["updates"] > 0
        assert checked["refreshed"] > checked["updates"]
        assert checked["scores"] > sum(len(s.tokens) for s in corpus)
        # Each refreshed position makes one `_entry` call; the other calls
        # are the search's entries, and some of them shared a vector.
        assert checked["entries"] - checked["refreshed"] > checked["scores"]
        if source == "all":
            assert checked["skipped"] == 0
        else:
            assert checked["skipped"] > 0


class TestScoreSharing:
    """A search scores each visible context of a position once, and holds
    score vectors for untagged positions only."""

    @staticmethod
    def _run(source, beam, reset) -> int:
        """Train on a small corpus and, unless `beam` is None, call `reset`
        and decode every sentence at `beam`; returns the token count."""
        corpus, lex = small_setup(seed=5, sentences=20, tags=10, vocab=60)
        model, _ = train(corpus, lex, None, TrainOptions(epochs=2, candidate_source=source))
        if beam is not None:
            reset()
            for s in corpus.sentences:
                decode_with_trace(s, model, lex, None,
                                  DecodeOptions(beam_size=beam, candidate_source=source))
        return sum(len(s.tokens) for s in corpus)

    @pytest.mark.parametrize("source", ["lexicon", "all"])
    @pytest.mark.parametrize("beam", [1, 3, None])  # None: training alone
    def test_each_context_scored_once(self, source, beam, monkeypatch):
        calls = Counter()  # (search, position, (left, right)) -> score calls
        searches = []
        search, score = tagger_mod._search, tagger_mod._SentenceScorer.score

        def counting_search(*args):
            searches.append(None)
            return search(*args)

        def counting_score(scorer, i, left=(), right=()):
            calls[len(searches), i, (tuple(left), tuple(right))] += 1
            return score(scorer, i, left, right)
        monkeypatch.setattr(tagger_mod, "_search", counting_search)
        monkeypatch.setattr(tagger_mod._SentenceScorer, "score", counting_score)
        tokens = self._run(source, beam, calls.clear)
        assert len(calls) > tokens
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("beam", [1, 3, None])
    def test_committed_positions_release_their_vectors(self, beam, monkeypatch):
        """At every step, every live score vector made in the search is held
        by a pair of a cached entry, or is the vector the merge of the last
        commit read last: the cache is the search's only holder of vectors,
        so no vector of a position committed before the last commit is
        alive."""
        made = []  # (position, weak reference to its score vector) in this search
        checked = Counter()
        search, score = tagger_mod._search, tagger_mod._SentenceScorer.score

        def recording_score(scorer, i, left=(), right=()):
            vec, dynamic = score(scorer, i, left, right)
            made.append((i, weakref.ref(vec)))
            return vec, dynamic

        def checking_search(scorer, cand_ids, beam, choose):
            made.clear()
            committed = []
            last_read = None  # weak reference to the vector the last merge read

            def checking_choose(p, c, cache):
                nonlocal last_read
                done = set(committed[:-1])
                assert not [i for i, ref in made if i in done and ref() is not None]
                held = {id(vec) for e in cache.values() for _, _, vec, _ in e[2]}
                live = [vec for _, ref in made if (vec := ref()) is not None]
                last = last_read and last_read()
                assert all(id(vec) in held or vec is last for vec in live)
                checked["steps"] += bool(done)
                checked["unheld"] += any(id(vec) not in held for vec in live)
                keep = choose(p, c, cache)
                if keep is not None:
                    committed.append(p)
                    # The merge reads the entry's pairs in order.
                    last_read = weakref.ref(cache[p][2][-1][2])
                return keep
            return search(scorer, cand_ids, beam, checking_choose)
        monkeypatch.setattr(tagger_mod, "_search", checking_search)
        monkeypatch.setattr(tagger_mod._SentenceScorer, "score", recording_score)
        tokens = self._run("lexicon", beam, checked.clear)
        assert checked["steps"] > tokens // 2
        assert checked["unheld"] > 0  # the last merge's vector was seen alive


@st.composite
def _averaged_tables(draw):
    """(T, unused feature count, [(feature number, averaged row)]).  0.1,
    0.2, 0.3 and 1e16 make sums that depend on the order of addition."""
    T = draw(st.integers(1, 5))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                                      1.7976931348623157e308, 0.1, 0.2, 0.3, 1e16]),
                     st.floats(allow_nan=False, allow_infinity=False))
    row = st.one_of(st.lists(cell, min_size=T, max_size=T),
                    st.lists(st.sampled_from([0.0, -0.0]), min_size=T, max_size=T))
    rows = draw(st.lists(st.tuples(st.integers(0, 7), row), max_size=8))
    return T, draw(st.integers(0, 8)), rows


class TestPersistence:
    @staticmethod
    def _outputs(model, lex, cascade, source, sentences) -> str:
        """repr of decode_with_trace and rescore at beams 1 and 3: equal
        reprs mean equal bits, -0.0 included."""
        out = []
        for beam in (1, 3):
            dopts = DecodeOptions(beam_size=beam, candidate_source=source)
            for s in sentences:
                tags, score, trace, order = decode_with_trace(s, model, lex, cascade, dopts)
                out.append((tags, score, trace, order,
                            rescore(s, tags, order, model, lex, cascade)))
        return repr(out)

    @staticmethod
    def _nonzero_rows(model) -> dict[str, bytes]:
        """feature -> averaged row bytes, for rows with a nonzero cell; adding
        +0.0 reads -0.0 cells as +0.0."""
        names = {fid: f for f, fid in model.feature_ids.items()}
        return {names[fid]: (row + 0.0).tobytes()
                for fid, row in model.averaged.items() if np.any(row != 0.0)}

    def test_save_load_bit_exact(self, tmp_path):
        """A reloaded model keeps exactly the nonzero averaged rows, decodes,
        traces and rescores as the model in memory, and saves the same
        bytes again."""
        corpus, lex = small_setup(sentences=15)
        for source in ("all", "lexicon+rules"):
            cascade = derive_safe_rules(corpus, lex) if source == "lexicon+rules" else None
            model, _ = train(corpus, lex, cascade, TrainOptions(epochs=2, candidate_source=source))
            path = tmp_path / f"{source}.json"
            model.save(path)
            loaded = Model.load(path)
            assert loaded.cfg == model.cfg
            assert loaded.inventory.tags == model.inventory.tags
            assert loaded.meta == model.meta
            assert loaded.weights == {}
            rows = self._nonzero_rows(model)
            assert 0 < len(rows) < len(model.feature_ids)
            assert self._nonzero_rows(loaded) == rows
            assert set(loaded.feature_ids) == set(rows)
            assert (self._outputs(loaded, lex, cascade, source, corpus.sentences[:6])
                    == self._outputs(model, lex, cascade, source, corpus.sentences[:6]))
            again = tmp_path / f"{source}-again.json"
            loaded.save(again)
            assert again.read_bytes() == path.read_bytes()

    def test_rows_in_any_order(self, tmp_path):
        """Files written before rows followed feature ids list them in
        first-update order.  A file whose rows are permuted, each feature
        with its tag ids and values, saves its own bytes again after a load
        and decodes as the file it was permuted from."""
        corpus, lex = small_setup(sentences=15)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        features = payload["features"]
        lengths, tag_ids = _unb64(payload["lengths"], "<u2"), _unb64(payload["tag_ids"], "<u2")
        values = _unb64(payload["values"], "<f8")
        offsets = [0] + np.cumsum(lengths).tolist()
        perm = random.Random(7).sample(range(len(features)), len(features))
        cells = [i for r in perm for i in range(offsets[r], offsets[r + 1])]
        payload["features"] = [features[r] for r in perm]
        payload["lengths"] = _b64(lengths[perm])
        payload["tag_ids"] = _b64(tag_ids[cells])
        payload["values"] = _b64(values[cells])
        permuted, again = tmp_path / "permuted.json", tmp_path / "again.json"
        permuted.write_text(json.dumps(payload, ensure_ascii=False, separators=(",", ":")),
                            encoding="utf-8")
        assert permuted.read_bytes() != path.read_bytes()
        Model.load(permuted).save(again)
        assert again.read_bytes() == permuted.read_bytes()
        assert (self._outputs(Model.load(permuted), lex, None, "all", corpus.sentences[:6])
                == self._outputs(Model.load(path), lex, None, "all", corpus.sentences[:6]))

    @settings(max_examples=80, deadline=None)
    @given(_averaged_tables())
    def test_round_trip_random_tables(self, table):
        """Random averaged tables, with -0.0, subnormals, +-1e308 and
        all-zero rows, in any row order; every cell is stored, so saving
        has to skip the zero ones."""
        T, extra, rows = table
        model = Model(TagInventory([f"T{t}" for t in range(T)]), FeatureConfig())
        model.averaged = dense_table(T, {model.intern(f"f{fid}"): row for fid, row in rows})
        for k in range(extra):
            model.intern(f"unused{k}")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "model.json")
            model.save(path)
            loaded = Model.load(path)
            assert self._nonzero_rows(loaded) == self._nonzero_rows(model)
            assert set(loaded.feature_ids) == set(self._nonzero_rows(model))
            assert list(loaded.feature_ids.values()) == list(loaded.averaged) \
                == list(range(len(loaded.averaged)))
            again = os.path.join(d, "again.json")
            loaded.save(again)
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()

    def test_model_without_updates(self, tmp_path):
        """A corpus the zero weights already tag right trains no update: the
        averaged table is empty, and the model saves, loads and decodes."""
        corpus = make_corpus([("a", "A"), ("b", "A")], [("c", "A")])
        model, _ = train(corpus, topts=TrainOptions(epochs=1),
                         cfg=FeatureConfig(use_lexicon_features=False))
        assert model.meta["updates"] == 0 and model.averaged == {}
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.averaged == {} and loaded.feature_ids == {}
        s = corpus.sentences[0]
        assert decode(s, loaded) == decode(s, model) == (["A", "A"], 0.0)

    @pytest.mark.parametrize("tag_ids", [[1, 1], [1, 0]])
    def test_tag_ids_ascend_within_a_row(self, tag_ids, tmp_path):
        """A repeated tag id used to load as its last value, and descending
        ids loaded too; a new row may start at any tag."""
        model = Model(TagInventory(["A", "B"]), FeatureConfig(use_lexicon_features=False))
        model.intern("w0=a")
        model.intern("w0=b")
        model.averaged = SparseTable(2, [0, 2, 3], [0, 1, 0], [1.0, 2.0, 3.0])
        path = tmp_path / "model.json"
        model.save(path)
        assert Model.load(path).averaged[1].tolist() == [3.0, 0.0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert _unb64(payload["lengths"], "<u2").tolist() == [2, 1]
        payload["tag_ids"] = _b64(np.array(tag_ids + [0], dtype="<u2"))
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="tag ids of a row do not strictly ascend"):
            Model.load(path)

    @pytest.mark.parametrize("T, width, table", [
        (65535, 2, ([0, 2, 3], [0, 65534, 1], [1.5, -2.0, 0.25])),
        (65536, 4, ([0, 2, 3], [0, 65535, 1], [1.5, -2.0, 0.25])),
        (3, 2, ([0], [], [])),
    ], ids=["65535-tags", "65536-tags", "no-cell"])
    def test_integer_width(self, T, width, table, tmp_path):
        """`lengths` and `tag_ids` are stored as 2-byte integers up to
        65,535 tags and as 4-byte ones above, with no JSON integer array;
        a model with no nonzero cell stores three empty strings.  A reload
        has the arrays of the model in memory and saves the same bytes."""
        model = Model(TagInventory([f"T{t}" for t in range(T)]),
                      FeatureConfig(use_lexicon_features=False))
        for r in range(len(table[0]) - 1):
            model.intern(f"w0=w{r}")
        model.averaged = SparseTable(T, *table)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == 6 and "offsets" not in payload
        assert [type(payload[k]) for k in ("lengths", "tag_ids", "values")] == [str] * 3
        assert _unb64(payload["lengths"], f"<u{width}").tolist() == np.diff(table[0]).tolist()
        assert _unb64(payload["tag_ids"], f"<u{width}").tolist() == table[1]
        assert _unb64(payload["values"], "<f8").tolist() == table[2]
        loaded = Model.load(path)
        for name in ("offsets", "tag_ids", "cells"):
            got, expect = getattr(loaded.averaged, name), getattr(model.averaged, name)
            assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": 99}')
        with pytest.raises(DataError):
            Model.load(path)


class TestSparseTable:
    @settings(max_examples=200, deadline=None)
    @given(_averaged_tables(), st.lists(st.lists(st.integers(0, 9), max_size=12), max_size=6))
    def test_sums_equal_sequential_dense_adds(self, table, positions):
        """The static sums of a sentence, one bincount over its cells, have
        the bits of adding each dense row in turn to +0.0: with the zero
        cells stored (-0.0 included) or left out, subnormal cells, repeated
        feature ids and ids with empty rows, and +-1e308 cells whose sums
        overflow to inf (and to NaN from inf - inf)."""
        T, _, rows = table
        full = dense_table(T, dict(rows), 10)
        keep = full.cells != 0.0
        counts = np.bincount(full.cell_rows()[keep], minlength=10)
        nonzero = SparseTable(T, np.concatenate(([0], np.cumsum(counts))),
                              full.tag_ids[keep], full.cells[keep])
        with np.errstate(over="ignore", invalid="ignore"):
            for sparse in (full, nonzero):
                sums = sparse.sums(positions)
                assert sums.shape == (len(positions), T) and sums.dtype == np.float64
                for fids, got in zip(positions, sums):
                    vec = np.zeros(T)
                    for fid in fids:
                        if fid in full:
                            vec += full[fid]
                    assert got.tobytes() == vec.tobytes()

    def test_sums_are_float_without_cells(self):
        """bincount over no cells counts in int64; the sums stay float64, so
        a score vector can still take float rows in place."""
        empty = SparseTable(3, [0, 0, 0], [], [])
        table = SparseTable(3, [0] * 8 + [1] * 3, [2], [1.5])
        for sparse, positions in ((empty, [[0, 1], []]), (table, [[0], [8, 9]]), (table, [])):
            sums = sparse.sums(positions)
            assert sums.dtype == np.float64 and sums.shape == (len(positions), 3)
            assert not sums.any()

    def test_a_row_per_feature_id(self, tmp_path):
        """Training, with updates and without, gives one row per interned
        feature, and a load one per feature in the file.  `sums` over every
        id, ids with empty rows included, adds the dense rows one by one."""
        corpus, lex = small_setup(sentences=15)
        trained, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        idle, _ = train(make_corpus([("a", "A"), ("b", "A")], [("c", "A")]),
                        topts=TrainOptions(epochs=1),
                        cfg=FeatureConfig(use_lexicon_features=False))
        path = tmp_path / "model.json"
        trained.save(path)
        loaded = Model.load(path)
        assert idle.meta["updates"] == 0 and idle.feature_ids and len(idle.averaged) == 0
        assert 0 < len(trained.averaged) < len(trained.feature_ids)
        assert len(loaded.averaged) == len(loaded.feature_ids) == len(trained.averaged)
        for model in (trained, idle, loaded):
            table, F = model.averaged, len(model.feature_ids)
            assert len(table.offsets) == F + 1
            fid_lists = [list(range(F)), list(range(F))[::-1]]
            for fids, got in zip(fid_lists, table.sums(fid_lists)):
                vec = np.zeros(table.T)
                for fid in fids:
                    if fid in table:
                        vec += table[fid]
                assert got.tobytes() == vec.tobytes()

    def test_mapping_reads_fresh_dense_rows(self):
        # Row 2 stores one zero cell; rows 3 to 6 store none.
        table = SparseTable(3, [0, 0, 0, 1, 1, 1, 1, 1, 3], [1, 0, 2], [0.0, 1.5, -2.0])
        assert list(table) == [2, 7] and len(table) == 2
        assert table[7].tolist() == [1.5, 0.0, -2.0] and table[2].tolist() == [0.0] * 3
        assert 3 not in table and 8 not in table and table.get(-1) is None
        table[7][0] = 9.0
        assert table[7][0] == 1.5 and table.sums([[7]])[0, 0] == 1.5

    def test_dense_memo_bounded(self, monkeypatch):
        """A memo bounded to four rows never holds more, empties itself
        while decoding, and gives the tags and scores of an unbounded one
        at beams 1 and 3."""
        corpus, lex = small_setup(seed=5, sentences=30, tags=10, vocab=60)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        runs = [(s, DecodeOptions(beam_size=b)) for b in (1, 3) for s in corpus.sentences]
        expect = [decode(s, model, lex, dopts=d) for s, d in runs]
        assert len(model.averaged.dense) > 4
        model.averaged.dense.clear()
        monkeypatch.setattr(tagger_mod, "_DENSE_CELLS", 4 * len(model.inventory) + 3)
        sizes = []
        missing = tagger_mod._DenseRows.__missing__

        def recording(memo, fid):
            row = missing(memo, fid)
            sizes.append(len(memo))
            return row
        monkeypatch.setattr(tagger_mod._DenseRows, "__missing__", recording)
        assert [decode(s, model, lex, dopts=d) for s, d in runs] == expect
        assert max(sizes) == 4 and sizes.count(1) > 1

    def test_no_dense_table(self, tmp_path):
        """Neither the averaged table that training returns nor the one a
        load builds holds a dense block of its rows.  At 680 tags (the
        tagger-680-all benchmark shape) such a block is about 25 MB; the
        sparse tables retain well under 4 MB."""
        cfg = SyntheticConfig(tag_count=680, vocab_size=3000, sentence_count=500,
                              min_sentence_len=15, max_sentence_len=15, ambiguity_rate=0.3)
        corpus, lex = generate_synthetic(cfg, 5)
        tr, _ = split_corpus(corpus, (0.8, 0.2))
        path = tmp_path / "model.json"
        bound = 4 * 2 ** 20
        tracemalloc.start()
        try:
            model, _ = train(Corpus(tr.sentences[:30]), lex, topts=TrainOptions(epochs=2))
            model.save(path)
            rows, T = len(model.averaged), len(model.inventory)
            with_table = tracemalloc.get_traced_memory()[0]
            model.averaged = None
            trained = with_table - tracemalloc.get_traced_memory()[0]
            before = tracemalloc.get_traced_memory()[0]
            loaded = Model.load(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows * T * 8 > 5 * bound  # a dense table would not fit the bound
        assert len(loaded.averaged) > 0.9 * rows
        assert trained < bound and retained < bound, (trained, retained)


class TestGeneralization:
    def test_learns_contextual_disambiguation(self):
        cfg = SyntheticConfig(tag_count=12, vocab_size=120, sentence_count=120,
                              ambiguity_rate=0.35)
        corpus, lex = generate_synthetic(cfg, 9)
        tr, te = split_corpus(corpus, (0.85, 0.15))
        model, _ = train(tr, lex, topts=TrainOptions(epochs=6))
        total = correct = 0
        for s in te.sentences:
            tags, _ = decode(s, model, lex)
            for tok, tag in zip(s.tokens, tags):
                total += 1
                correct += tag == tok.gold_tag
        assert correct / total >= 0.75


class TestGolden:
    """Exact training and decoding output for fixed seeded inputs: the
    sha256 of the saved model file, of (tags, score, commit order) of every
    decoded test sentence at beam 1 and beam 3, and of the trained model in
    memory (features, raw and averaged rows, which the file does not all
    carry).  `ORDERS` pins (tags, commit order) alone at both beams, which
    holds even when the low bits of the averaged weights, and so the
    scores, move.  Refactors of the search, the scorer or the update must
    leave these hashes unchanged.  Decoding through the reloaded file must
    give the same decode hashes as the model in memory.

    "lexicon-oov" drops every third word from the lexicon, so sentences mix
    short candidate lists with the full-inventory fallback.  "all-ties"
    scales the averaged weights by 5 and rounds them to integers before
    saving and decoding, so many tags tie exactly and the (-score, tags)
    tie rule decides.  "hard-rules-prefix" trains on plain lexicon
    candidates with cascade-filtered lexicon features and decodes under hard
    output rules that are only the cascade's first two rules, so candidates
    and features read different cascades in both training and decoding."""

    CASES = {
        "all": ("all", False, (
            "fa5085aceb0987d1642e3ac7c840320ceb45d89ae741ea180085969e508bcda4",
            "d3720ef6ae562b0ebfc107462eeebd93fe045728fe9463d68ad92ada1520f5bd",
            "bcfa13a2986ae8f252280f339c6b5d2532d5e1d6b9df8038ec761b0ba03a08f9",
            "e0c61848ba1060a446d022618282624dad896a9e8306345d111fc9f04630a738")),
        "lexicon+rules": ("lexicon+rules", True, (
            "ac379fc4cc9132f0615b88aee826d679d959a341491266a6f91ef1ff715ba226",
            "b7f5600192f7527ed985f6857706d548877d322a3aeee4e1f8149f2aa5098fab",
            "cb0e289c8e59d3dcaae3029cfabaf587ba4b80fa64d90c725f6917ed61a29d7c",
            "a8a1f1b8fa812ac8758df593d44226b0787ccd65ba0da38d939628e051639e48")),
        "lexicon-oov": ("lexicon", False, (
            "0e9712ac64d5b5b3af0562f21b3ca18ca23b33895138253cffaf5264fa8b143e",
            "fd521ba3b49f788453485b7636555689cbf074d4c194646aa6b1c4aac2855771",
            "b5407214630ab589336a6b95039e7f64e8689122db7b3b8a525f78d10ffb50b5",
            "b93175eb06d17e71376e4af8addace0d7a61c1111a1d5622456b228e3405bef2")),
        "all-ties": ("all", False, (
            "7ae8181f6cb0875153fff44276914ec336f576a14f38dc779dcaa82aaf1e0a8e",
            "9e8d73a8c50349cc35579553a2457234357459770ca4989d14941041a96824e5",
            "9e8d73a8c50349cc35579553a2457234357459770ca4989d14941041a96824e5",
            "3dca448ef5d1db430257e8f5c6468b6b78a20cb4b7991666aecfc51e22014cf2")),
        "hard-rules-prefix": ("lexicon", True, (
            "1077b20ff93576a35bf61f8b4eb54ed46ac8f6bcd65cd4741c3d2b716e049488",
            "33486bdaa87a29049d90402ed957bbf037aff5862e9a5341d77cf36075a4d98e",
            "db5af6728e7859913e13542c9ded2d04a31adb397b1e94dbbfbb96f3d2a6f4b4",
            "439a139f995743270889bca133261f14a8419999fc63ed6a9f3e6c0df84a7802")),
    }

    # sha256 of (tags, commit order) at beams 1 and 3, with no scores in it:
    # a change to the low bits of the averaged weights leaves these alone.
    ORDERS = {
        "all": ("8f68d62e376efe7d4394b6fa9771c6e9ba8d33a9e84843e7265800fcf49dd081",
                "9a229017885e253f3d4f6ba296b4bdb6d2210dd81f550165b474c8aff599ca1e"),
        "lexicon+rules": (
            "008099de606e30c7acb3a8f10ea461de0884911acdac4baec15e4cacdffa649f",
            "acca18cce1cb64c29e81c664cdc2d97c59d95c9522775e09f4f99cc4d101d136"),
        "lexicon-oov": (
            "80176fa75498e6263c3eb4023c54ad1686772d45a18e5a8def2aec55c761b033",
            "edde753a5d81e43752b1822daf694d3e45995c998e4d67b5b791ebd829345026"),
        "all-ties": (
            "8f7fe6cbfa4eaa2743e11b9e8f5eaff9f727cd4a5b0b5c16c65bdae2597f828e",
            "8f7fe6cbfa4eaa2743e11b9e8f5eaff9f727cd4a5b0b5c16c65bdae2597f828e"),
        "hard-rules-prefix": (
            "686791dc9e46e646da0041277f3d866f39427713c109715a85d30fcccd888146",
            "19306db7f3e1884947193d25a7a8c9ccb2ae68f61de0ef8df6337c3fdcfa7a92"),
    }

    @staticmethod
    def _model_digest(model) -> str:
        """sha256 of the trained model in memory: the interned features, then
        the raw and the averaged rows in fid order."""
        h = hashlib.sha256(repr(model.feature_ids).encode())
        for table in (model.weights, model.averaged):
            for fid in sorted(table):
                h.update(repr(fid).encode())
                h.update(table[fid].tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_pinned(self, case, tmp_path):
        source, filtered, expected = self.CASES[case]
        orders = self.ORDERS[case]
        corpus, lex = small_setup(seed=5, sentences=40, tags=10, vocab=60)
        if case == "lexicon-oov":
            lex = Lexicon({w: r for i, (w, r) in enumerate(sorted(lex.entries.items()))
                           if i % 3})
        tr, te = split_corpus(corpus, (0.75, 0.25))
        cascade = derive_safe_rules(tr, lex) if filtered else None
        hard = RuleCascade(cascade.rules[:2]) if case == "hard-rules-prefix" else cascade
        cfg = FeatureConfig(lexicon_filter="rules" if filtered else "none")
        model, _ = train(tr, lex, cascade, TrainOptions(epochs=3, candidate_source=source),
                         cfg)
        if case == "all-ties":
            model.averaged = rounded(model.averaged)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Model.load(path)

        def decode_digests(m, beam):
            """sha256 of (tags, score, order) and of (tags, order)."""
            dopts = DecodeOptions(beam_size=beam, candidate_source=source,
                                  hard_output_rules=hard)
            out = [decode_with_trace(s, m, lex, cascade, dopts) for s in te.sentences]
            return tuple(hashlib.sha256(repr(rows).encode()).hexdigest() for rows in (
                [(tags, score, order) for tags, score, _, order in out],
                [(tags, order) for tags, _, _, order in out]))
        (b1, order_b1), (b3, order_b3) = decoded = [decode_digests(model, beam)
                                                    for beam in (1, 3)]
        assert (order_b1, order_b3) == orders
        digests = (hashlib.sha256(path.read_bytes()).hexdigest(), b1, b3,
                   self._model_digest(model))
        assert digests == expected
        assert [decode_digests(loaded, beam) for beam in (1, 3)] == decoded
