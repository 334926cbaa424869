import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag.corpus import Sentence, Token
from morphtag.errors import ConfigError, DataError
from morphtag.features import FeatureConfig
from morphtag.lexicon import Lexicon
from morphtag.rules import parse_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_synthetic,
                                split_corpus)
from morphtag.tagger import (DecodeOptions, Model, TrainOptions,
                             _AveragedAccumulator, decode, decode_with_trace,
                             rescore, train)


def sent(*surfaces):
    return Sentence(tuple(Token(s, None) for s in surfaces))


def small_setup(seed=3, sentences=30, tags=8, vocab=40, ambiguity=0.3):
    cfg = SyntheticConfig(tag_count=tags, vocab_size=vocab,
                          sentence_count=sentences, ambiguity_rate=ambiguity)
    return generate_synthetic(cfg, seed)


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

    def test_decode_validation(self):
        with pytest.raises(ConfigError):
            DecodeOptions(beam_size=0)
        with pytest.raises(ConfigError):
            DecodeOptions(candidate_source="bogus")


class TestTraining:
    def test_memorizes_small_corpus(self):
        corpus = make_corpus(["аз/P1", "чета/V1"], ["тя/P3", "чете/V3"],
                             ["аз/P1", "спя/V1"])
        model, _ = train(corpus, topts=TrainOptions(epochs=8))
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

    def test_pa_postcondition(self):
        corpus, lex = small_setup(sentences=20)
        topts = TrainOptions(epochs=2, aggressiveness=0.5, margin=1.0)
        log = []
        train(corpus, lex, topts=topts, update_log=log)
        assert log
        assert any(not r.capped for r in log)
        for rec in log:
            assert 0.0 < rec.tau <= topts.aggressiveness + 1e-12
            if not rec.capped:
                assert rec.margin_after >= topts.margin - 1e-9

    def test_update_promotes_gold(self):
        corpus = make_corpus(["а/X", "а/Y"])
        log = []
        train(corpus, topts=TrainOptions(epochs=1), update_log=log)
        for rec in log:
            assert rec.gold_id != rec.predicted_id


class TestAveragedAccumulator:
    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 31))
    def test_matches_snapshot_mean(self, seed):
        rng = random.Random(seed)
        T = 3
        fids = list(range(5))
        weights = {}
        acc = _AveragedAccumulator(T)
        snapshots = []
        for _ in range(rng.randint(1, 200)):
            touched = rng.sample(fids, rng.randint(1, 3))
            for fid in touched:
                row = weights.get(fid)
                if row is None:
                    row = weights[fid] = np.zeros(T)
                acc.touch(fid, row)
                row[rng.randrange(T)] += rng.uniform(-1, 1)
            acc.k += 1
            snapshots.append({f: w.copy() for f, w in weights.items()})
        averaged = acc.finalize(weights)
        k = len(snapshots)
        for fid, row in weights.items():
            expect = sum(s.get(fid, np.zeros(T)) for s in snapshots) / k
            assert np.allclose(averaged[fid], expect, atol=1e-9)

    def test_no_updates_empty(self):
        acc = _AveragedAccumulator(2)
        assert acc.finalize({0: np.ones(2)}) == {}


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

    def test_score_matches_rescore_replay(self):
        corpus, lex = small_setup(sentences=25)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=3))
        for s in corpus.sentences[:8]:
            for beam in (1, 3):
                tags, score, _, order = decode_with_trace(
                    s, model, lex, dopts=DecodeOptions(beam_size=beam))
                replay = rescore(s, tags, order, model, lex)
                assert replay == pytest.approx(score, abs=1e-9)

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


class TestPersistence:
    def test_save_load_bit_exact(self, tmp_path):
        corpus, lex = small_setup(sentences=15)
        model, _ = train(corpus, lex, topts=TrainOptions(epochs=2))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.feature_ids == model.feature_ids
        assert loaded.cfg == model.cfg
        assert loaded.inventory.tags == model.inventory.tags
        for fid, row in model.averaged.items():
            if np.any(row != 0.0):
                assert np.array_equal(loaded.averaged[fid], row)
        for s in corpus.sentences[:6]:
            assert decode(s, loaded, lex) == decode(s, model, lex)

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": 99}')
        with pytest.raises(DataError):
            Model.load(path)


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
    sha256 of the saved model file and of (tags, score, commit order) of
    every decoded test sentence at beam 1 and beam 3.  Refactors of the
    search, the scorer or the update must leave these hashes unchanged.

    "lexicon-oov" drops every third word from the lexicon, so sentences mix
    short candidate lists with the full-inventory fallback.  "all-ties"
    scales the averaged weights by 5 and rounds them to integers before
    saving and decoding, so many tags tie exactly and the (-score, tags)
    tie rule decides."""

    CASES = {
        "all": ("all", False, (
            "a290053f4904802095f478bc6347a164f32e5557f12a04ae864c9e78874a53b5",
            "479bc9bdeffdef12fb3b59a099652d3c0d1a05e4a322afc4a7c8617e864f19a3",
            "d95eacd3d4502accbb26c1d7aaaaa6cfe29ca4dfae614923ff891f155839bf0f")),
        "lexicon+rules": ("lexicon+rules", True, (
            "702981af5c772d9c87e72841c79a99452803b8c01fd2bc29d49ceadaafa9e7de",
            "7e43f012e3dd86dfde6fe91d9b83e8b2bb2d339c91dc37e5cef94358a0ed15bb",
            "cc6dce5f8c3638cd3fdcbf8beb82d7098f2cd5bee3f4db5c2b690c57c8a927a1")),
        "lexicon-oov": ("lexicon", False, (
            "726e39ed55168bfe2c3bdeb6ef29ded4df1ac6b50fef37c7b7e2a1f05b7fb969",
            "71786aef8e071a76037450e45664c7aeb7f5069b8049b46d0c38f9608350274e",
            "6f6e1f274e67ad1962645c726565fe5aaecb2f23aff2797e2f2a7e8e42b703a2")),
        "all-ties": ("all", False, (
            "851cbf3add7e4fb334c67ff23d78698dcf8cee78b6784b592ab382cb8408a1bb",
            "9e8d73a8c50349cc35579553a2457234357459770ca4989d14941041a96824e5",
            "9e8d73a8c50349cc35579553a2457234357459770ca4989d14941041a96824e5")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_pinned(self, case, tmp_path):
        source, filtered, expected = self.CASES[case]
        corpus, lex = small_setup(seed=5, sentences=40, tags=10, vocab=60)
        if case == "lexicon-oov":
            lex = Lexicon({w: e for i, (w, e) in enumerate(sorted(lex.entries.items()))
                           if i % 3})
        tr, te = split_corpus(corpus, (0.75, 0.25))
        cascade = derive_safe_rules(tr, lex) if filtered else None
        cfg = FeatureConfig(lexicon_filter="rules" if filtered else "none")
        model, _ = train(tr, lex, cascade, TrainOptions(epochs=3, candidate_source=source),
                         cfg)
        if case == "all-ties":
            for row in model.averaged.values():
                np.round(row * 5, out=row)
        path = tmp_path / "model.json"
        model.save(path)
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()]
        for beam in (1, 3):
            dopts = DecodeOptions(beam_size=beam, candidate_source=source,
                                  hard_output_rules=cascade)
            out = [decode_with_trace(s, model, lex, cascade, dopts) for s in te.sentences]
            digests.append(hashlib.sha256(
                repr([(tags, score, order) for tags, score, _, order in out]).encode()
            ).hexdigest())
        assert tuple(digests) == expected
