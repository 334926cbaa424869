"""End-to-end acceptance checks.

Each test covers one numbered release criterion; the terminal summary hook
in conftest prints one PASS/FAIL line per criterion.
"""

import random
import time
from collections import Counter

import numpy as np
import pytest

import morphtag.tagger as tagger_mod
from conftest import make_corpus, make_lexicon
from morphtag.baselines import (UNTAGGABLE, DefaultTag, FailUnknown,
                                SuffixGuesser, build_mft, tag_mft,
                                tag_mft_lexicon)
from morphtag.corpus import Sentence, Token, write_vertical
from morphtag.evaluation import chi_squared, evaluate
from morphtag.experiment import ExperimentSpec, GridRow, run_experiment
from morphtag.features import FeatureConfig
from morphtag.lemmatizer import (LemmaRule, generate_rules, lemmatize)
from morphtag.lexicon import ambiguity_stats, dump_lexicon
from morphtag.rules import apply_cascade, audit_precision, parse_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules,
                                generate_lemma_lexicon, generate_synthetic,
                                split_corpus)
from morphtag.tagger import (DecodeOptions, TrainOptions, _RawRows, decode,
                             decode_with_trace, train)

# ---------------------------------------------------------------------------
# Shared expensive fixtures

LEARNER_CONFIG = SyntheticConfig(tag_count=50, vocab_size=800,
                                 sentence_count=625, ambiguity_rate=0.3)
LEARNER_SEED = 11

GRID_SEEDS = (0, 1, 2, 3, 4)
GRID_ROWS = [
    GridRow("wf", use_lexicon_features=False),
    GridRow("lex", use_lexicon_features=True),
    GridRow("wf-hard", use_lexicon_features=False, hard_rules=True),
    GridRow("lex-hard", use_lexicon_features=True, hard_rules=True),
    GridRow("lex-hard-b3", use_lexicon_features=True, hard_rules=True, beam=3),
]


@pytest.fixture(scope="module")
def learner_corpus():
    return generate_synthetic(LEARNER_CONFIG, LEARNER_SEED)


def _write_grid_files(base, seed):
    cfg = SyntheticConfig(tag_count=15, vocab_size=150, sentence_count=150,
                          ambiguity_rate=0.3)
    corpus, lexicon = generate_synthetic(cfg, seed)
    cascade = derive_safe_rules(corpus, lexicon)
    tr, te = split_corpus(corpus, (0.8, 0.2))
    (base / "train.tsv").write_text(write_vertical(tr), encoding="utf-8")
    (base / "test.tsv").write_text(write_vertical(te), encoding="utf-8")
    (base / "lex.tsv").write_text(dump_lexicon(lexicon), encoding="utf-8")
    from morphtag.rules import format_rules
    (base / "rules.dsl").write_text(format_rules(cascade), encoding="utf-8")
    return ExperimentSpec(
        train_path=str(base / "train.tsv"), test_path=str(base / "test.tsv"),
        lexicon_path=str(base / "lex.tsv"), rules_path=str(base / "rules.dsl"),
        seed=0, epochs=4, rows=list(GRID_ROWS))


@pytest.fixture(scope="module")
def grid_results(tmp_path_factory):
    """Per-seed {row_id: (sentence_acc, token_acc)} over the 5-seed grid."""
    out = {}
    for seed in GRID_SEEDS:
        base = tmp_path_factory.mktemp(f"grid{seed}")
        spec = _write_grid_files(base, seed)
        out[seed] = {rid: (s, t) for rid, s, t in run_experiment(spec)}
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_lemmatizer_roundtrip_at_scale():
    start = time.monotonic()
    lexicon = generate_lemma_lexicon(paradigm_count=25, forms_per_paradigm=20,
                                     stems_per_paradigm=20, seed=1)
    rules = generate_rules(lexicon)
    triples = 0
    for surface, readings in lexicon.items():
        for tag, lemma in readings.items():
            triples += 1
            assert lemmatize(surface, tag, rules) == lemma
    elapsed = time.monotonic() - start
    assert triples >= 10_000
    assert elapsed < 5.0


def test_criterion_02_aorist_worked_example():
    lexicon = make_lexicon({"четох": {"Vpitf-o1s": "чета"}})
    rules = generate_rules(lexicon)
    assert rules.rules() == [LemmaRule("Vpitf-o1s", "ох", "а")]
    assert lemmatize("четох", "Vpitf-o1s", rules) == "чета"


def test_criterion_03_mft_oracle_equivalence():
    guesser = SuffixGuesser((("a", "TA"), ("b", "TB")), "TD")
    tags = ["TA", "TB", "TC", "TD"]
    for seed in range(100):
        rng = random.Random(f"mft-oracle:{seed}")
        surfaces = [f"w{k}{rng.choice('ab c')}".strip() for k in range(8)]
        tokens = [(rng.choice(surfaces), rng.choice(tags))
                  for _ in range(rng.randint(10, 500))]
        corpus = make_corpus(tokens)
        lexicon = make_lexicon({
            s: set(t for w, t in tokens if w == s) | {rng.choice(tags)}
            for s in surfaces})
        table = build_mft(corpus, lexicon)
        test_surfaces = [rng.choice(surfaces + ["zz"]) for _ in range(30)]
        test = Sentence(tuple(Token(s) for s in test_surfaces))
        counts = {s: Counter(t for w, t in tokens if w == s)
                  for s in set(s for s, _ in tokens)}

        outs = {
            "fail": tag_mft(test, table, FailUnknown(), seed=seed),
            "default": tag_mft(test, table, DefaultTag("TD"), seed=seed),
            "guesser": tag_mft(test, table, guesser, seed=seed),
            "lexicon": tag_mft_lexicon(test, table, lexicon, seed=seed),
        }
        # determinism under the same seed
        assert outs["fail"] == tag_mft(test, table, FailUnknown(), seed=seed)
        assert outs["lexicon"] == tag_mft_lexicon(test, table, lexicon,
                                                  seed=seed)
        for i, surface in enumerate(test_surfaces):
            seen = counts.get(surface)
            if seen:
                best = {t for t, c in seen.items() if c == max(seen.values())}
                for mode in ("fail", "default", "guesser"):
                    assert outs[mode][i] in best
                    if len(best) == 1:
                        assert outs[mode][i] == next(iter(best))
            else:
                assert outs["fail"][i] == UNTAGGABLE
                assert outs["default"][i] == "TD"
                assert outs["guesser"][i] == guesser.guess(surface)
            # lexicon backoff, replayed independently
            if seen and len({t for t, c in seen.items()
                             if c == max(seen.values())}) == 1:
                assert seen[outs["lexicon"][i]] == max(seen.values())
            elif surface in lexicon:
                cls = lexicon.tags(surface)
                ccounts = Counter(t for w, ts in counts.items()
                                  if lexicon.tags(w) == cls
                                  for t, c in ts.items() for _ in range(c))
                if ccounts and len({t for t, c in ccounts.items()
                                    if c == max(ccounts.values())}) == 1:
                    assert ccounts[outs["lexicon"][i]] == max(ccounts.values())
                else:
                    assert outs["lexicon"][i] in cls
            else:
                assert outs["lexicon"][i] in {t for c in counts.values()
                                              for t in c}


def test_criterion_04_tag_class_backoff():
    lexicon = make_lexicon({"лев": ["Ncmsi", "Ncmt"],
                            "метър": ["Ncmsi", "Ncmt"],
                            "бряг": ["Ncmsi", "Ncmt"]})
    corpus = make_corpus(["лев/Ncmt", "лев/Ncmt", "метър/Ncmt",
                          "метър/Ncmsi"])
    table = build_mft(corpus, lexicon)
    test = Sentence((Token("бряг"),))
    assert tag_mft_lexicon(test, table, lexicon) == ["Ncmt"]


def test_criterion_05_rule_engine():
    # reductive and never-empty over 10,000 fuzzed sentences
    tags = ["A1", "A2", "B1", "B2", "C1"]
    words = ["a", "b", "c", "5", ","]
    checked = 0
    for block_seed in range(50):
        rng = random.Random(f"cascade:{block_seed}")
        blocks = []
        for k in range(rng.randint(1, 4)):
            conds = [f"IF 0 SURFACE-IN {rng.choice(words)}"]
            off = rng.randint(-2, 2)
            if off != 0:
                conds.append(f"IF {off} HAS-PREFIX {rng.choice('ABC')}")
            action = rng.choice(["RETAIN", "REMOVE"])
            pats = ",".join(rng.sample(["A", "B", "C", "A1", "B2"],
                                       rng.randint(1, 2)))
            blocks.append(f"RULE r{k}\n" + "\n".join(conds)
                          + f"\nTHEN {action} {pats}\nEND\n")
        cascade = parse_rules("\n".join(blocks))
        for _ in range(200):
            n = rng.randint(1, 7)
            sent = Sentence(tuple(Token(rng.choice(words)) for _ in range(n)))
            cands = [set(rng.sample(tags, rng.randint(1, len(tags))))
                     for _ in range(n)]
            out = apply_cascade(cascade, sent, cands)
            for before, after in zip(cands, out):
                assert after and after <= before
            checked += 1
    assert checked == 10_000

    # shipped example rules are precise on their design corpus
    from importlib import resources
    text = resources.files("morphtag.data").joinpath("example_rules.txt") \
        .read_text("utf-8")
    shipped = parse_rules(text)
    lexicon = make_lexicon({"5": ["Mc"], "лв": ["Ncmsh", "Ncmt"],
                            "я": ["I", "Ppetas3f"], ",": ["U,"],
                            "ела": ["Vpptz-2s"], "дай": ["Vpptz-2s"]})
    design = make_corpus(["5/Mc", "лв/Ncmt"],
                         ["я/I", ",/U,", "ела/Vpptz-2s"],
                         ["дай/Vpptz-2s", "я/Ppetas3f"])
    report = audit_precision(shipped, design, lexicon)
    assert all(removed == 0 for _, removed in report.values())
    assert sum(fired for fired, _ in report.values()) >= 3

    # cascade order matters on the sentence-initial interjection witness
    witness = Sentence((Token("я"), Token(","), Token("ела")))
    cands = [{"I", "Ppetas3f"}, {"U,"}, {"Vpptz-2s"}]
    forward = apply_cascade(shipped, witness, cands)
    swapped_rules = list(shipped.rules)
    swapped_rules[1], swapped_rules[2] = swapped_rules[2], swapped_rules[1]
    from morphtag.rules import RuleCascade
    backward = apply_cascade(RuleCascade(tuple(swapped_rules)), witness, cands)
    assert forward[0] == {"I"}
    assert backward[0] == {"Ppetas3f"}
    assert forward != backward


def test_criterion_06_guided_learner_sanity(learner_corpus, update_log):
    corpus, lexicon = learner_corpus
    assert sum(len(s) for s in corpus.sentences) >= 5000
    model, acc = train(corpus, lexicon, topts=TrainOptions(epochs=20))
    assert max(acc) >= 0.995

    # passive-aggressive post-condition on every logged update
    topts = TrainOptions()
    for rec in update_log:
        assert 0.0 < rec.tau <= topts.aggressiveness + 1e-12
        if rec.tau < topts.aggressiveness:
            assert rec.margin_after >= topts.margin - 1e-9

    # bit-reproducible training and decoding under a fixed seed
    small = split_corpus(corpus, (0.2, 0.8))[0]
    m1, a1 = train(small, lexicon, topts=TrainOptions(epochs=2))
    m2, a2 = train(small, lexicon, topts=TrainOptions(epochs=2))
    assert a1 == a2 and m1.feature_ids == m2.feature_ids
    for fid in m1.weights:
        assert np.array_equal(m1.weights[fid], m2.weights[fid])
    for fid in m1.averaged:
        assert np.array_equal(m1.averaged[fid], m2.averaged[fid])

    # easiest-first: every committed action is a global argmax at its step
    for sent in corpus.sentences[:10]:
        first = decode_with_trace(sent, model, lexicon)
        again = decode_with_trace(sent, model, lexicon)
        assert first[0] == again[0] and first[1] == again[1]
        for step in first[2]:
            assert step.score == max(step.available.values())


def test_criterion_07_directional_grid(grid_results):
    # (a) lexicon features reduce token error on >= 4 of 5 seeds
    wins = sum(grid_results[s]["lex"][1] > grid_results[s]["wf"][1]
               for s in GRID_SEEDS)
    assert wins >= 4

    # (b) hard output rules from a safe cascade never reduce token accuracy
    for s in GRID_SEEDS:
        assert grid_results[s]["wf-hard"][1] >= grid_results[s]["wf"][1]
        assert grid_results[s]["lex-hard"][1] >= grid_results[s]["lex"][1]

    # (c) beam 1 and beam 3 both complete and rerun identically
    for s in GRID_SEEDS:
        assert "lex-hard" in grid_results[s] and "lex-hard-b3" in grid_results[s]


def test_criterion_07c_grid_deterministic(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid-repeat")
    spec = _write_grid_files(base, GRID_SEEDS[0])
    assert run_experiment(spec) == run_experiment(spec)


def test_criterion_08_projection_monotonicity():
    cfg = SyntheticConfig(tag_count=12, vocab_size=100, sentence_count=80,
                          ambiguity_rate=0.35)
    corpus, lexicon = generate_synthetic(cfg, 2)
    tr, te = split_corpus(corpus, (0.8, 0.2))
    vocab = {tok.surface for tok in tr.tokens()}
    for use_lex in (False, True):
        model, _ = train(tr, lexicon, topts=TrainOptions(epochs=3),
                         cfg=FeatureConfig(use_lexicon_features=use_lex))
        preds = [decode(s, model, lexicon)[0] for s in te.sentences]
        report = evaluate(te, preds, vocab, depths=(1, 2))
        assert report.projected_accuracy[1] >= report.token_accuracy
        assert report.projected_accuracy[2] >= report.token_accuracy
        assert report.projected_accuracy[1] >= report.projected_accuracy[2]


def test_criterion_09_chi_squared():
    stat, _ = chi_squared(10, 20, 30, 40)
    assert stat == pytest.approx(0.7937, abs=1e-3)

    n = 35_021
    correct_a = round(0.9465 * n)
    correct_b = round(0.9798 * n)
    _, p = chi_squared(correct_a, n - correct_a, correct_b, n - correct_b)
    assert p < 0.0001

    stat0, p0 = chi_squared(10, 20, 30, 60)
    assert stat0 == pytest.approx(0.0, abs=1e-12)
    assert p0 == pytest.approx(1.0, abs=1e-12)


def test_criterion_10_averaged_perceptron_oracle(monkeypatch):
    snapshots = []

    class Recording(_RawRows):
        def update(self, fids, g, c, step):
            super().update(fids, g, c, step)
            snapshots.append(dict(self.items()))

    monkeypatch.setattr(tagger_mod, "_RawRows", Recording)
    cfg = SyntheticConfig(tag_count=6, vocab_size=30, sentence_count=12,
                          ambiguity_rate=0.3)
    corpus, lexicon = generate_synthetic(cfg, 4)
    model, _ = train(corpus, lexicon, topts=TrainOptions(epochs=2))
    k = len(snapshots)
    assert 0 < k <= 200
    assert model.meta["updates"] == k
    T = len(model.inventory)
    for fid in model.weights:
        naive = sum(s.get(fid, np.zeros(T)) for s in snapshots) / k
        assert np.allclose(model.averaged[fid], naive, atol=1e-9)


def test_criterion_11_ambiguity_statistics():
    lexicon = make_lexicon({"на": ["R", "Tx", "Ta"], "аз": ["P1"],
                            "чета": ["V1"], "книга": ["N1"]})
    corpus = make_corpus(["аз/P1", "чета/V1", "на/R", "книга/N1"])
    assert ambiguity_stats(lexicon, corpus) == (0.25, 1.5)

    for seed in range(10):
        cfg = SyntheticConfig(tag_count=10, vocab_size=60,
                              sentence_count=25, ambiguity_rate=0.4)
        gen_corpus, gen_lexicon = generate_synthetic(cfg, seed)
        cascade = derive_safe_rules(gen_corpus, gen_lexicon)
        before = ambiguity_stats(gen_lexicon, gen_corpus)
        after = ambiguity_stats(gen_lexicon, gen_corpus, rules=cascade)
        assert after[0] <= before[0]
        assert after[1] <= before[1]
