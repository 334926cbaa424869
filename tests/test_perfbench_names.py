"""The benchmark traces program functions by name from outside the program
(perfbench/workloads.py, `install_tracing`), and calls the CLI on broken
files it writes itself.  A rename or move of one of those names, or a
change that makes a CLI operation fail, must fail here, not only in a
benchmark run.  So must a change to a keyword or option that perfbench
passes: `test_benchmark_runs` runs every workload on tiny inputs."""

import contextlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from morphtag.features import FeatureConfig
from morphtag.synthetic import SyntheticConfig, derive_safe_rules, generate_synthetic
from morphtag.tagger import DecodeOptions, TrainOptions, decode_with_trace, train

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


class _LookupTracer:
    """Records what install_tracing would wrap, without wrapping it."""

    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name):
        assert callable(owner.__dict__[attr]), (owner, attr)
        self.patched.append((owner.__name__, attr, name))


class _CountingTracer:
    """Wraps what install_tracing names with a call counter; monkeypatch
    restores the originals."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = Counter()

    def patch(self, owner, attr, name):
        original = owner.__dict__[attr]

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)
        self.monkeypatch.setattr(owner, attr, counted)


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_traced_names_exist(monkeypatch):
    tracer = _LookupTracer()
    _workloads(monkeypatch).install_tracing(tracer)
    assert ("morphtag.rules", "apply_cascade", "rules.cascade") in tracer.patched
    assert ("morphtag.rules", "audit_precision", "rules.audit") in tracer.patched


def test_rule_path_layers_are_called(monkeypatch):
    """A lexicon+rules decode goes through the traced names of its layers,
    so their per-layer metrics cannot fall silently to 0."""
    corpus, lexicon = generate_synthetic(
        SyntheticConfig(tag_count=6, vocab_size=30, sentence_count=10), 1)
    cascade = derive_safe_rules(corpus, lexicon)
    assert len(cascade) > 0
    cfg = FeatureConfig(lexicon_filter="rules")
    model, _ = train(corpus, lexicon, cascade,
                     TrainOptions(epochs=1, candidate_source="lexicon+rules"), cfg)
    tracer = _CountingTracer(monkeypatch)
    _workloads(monkeypatch).install_tracing(tracer)
    decode_with_trace(corpus.sentences[0], model, lexicon, cascade,
                      DecodeOptions(candidate_source="lexicon+rules",
                                    hard_output_rules=cascade))
    for name in ("features.suggested", "rules.cascade", "lexicon.tags"):
        assert tracer.calls[name] > 0, name


def test_scoring_counts(monkeypatch):
    """perfbench counts scorings by `features.tag` calls.  Decoding scores
    each visible context of a position once per search: hypothesis pairs
    that see the same tags, and a re-entered position that sees the tags its
    previous entry saw, share one score vector (162 and 266 calls when every
    pair of every entry was scored).  Training makes fewer than when every
    update rescored the sentence (453 here): about decoding's rate, since an
    update patches two columns of the cache instead."""
    corpus, lexicon = generate_synthetic(
        SyntheticConfig(tag_count=6, vocab_size=30, sentence_count=10), 1)
    cascade = derive_safe_rules(corpus, lexicon)
    tracer = _CountingTracer(monkeypatch)
    _workloads(monkeypatch).install_tracing(tracer)
    model, _ = train(corpus, lexicon, cascade,
                     TrainOptions(epochs=2, candidate_source="lexicon+rules"),
                     FeatureConfig(lexicon_filter="rules"))
    train_calls = tracer.calls["features.tag"]
    decode_calls = {}
    for beam in (1, 3):
        tracer.calls.clear()
        for s in corpus.sentences:
            decode_with_trace(s, model, lexicon, cascade,
                              DecodeOptions(beam_size=beam, candidate_source="lexicon+rules",
                                            hard_output_rules=cascade))
        decode_calls[beam] = tracer.calls["features.tag"]
    assert decode_calls == {1: 151, 3: 217}
    assert model.meta["updates"] == 17
    assert train_calls < 453
    # Per training token (two epochs): at most beam-1 decoding's rate plus
    # the updates' rate.
    assert train_calls <= 2 * decode_calls[1] + model.meta["updates"]


def test_cli_edge_operations_pass(monkeypatch, tmp_path):
    """The five CLI operations on broken input that toolkit-50 counts in
    `failed` end with their documented exit code and one stderr line, on
    the files its set-up writes (two of them are model files)."""
    workloads = _workloads(monkeypatch)
    tracer = SimpleNamespace(phase=lambda name: contextlib.nullcontext())
    workloads.setup(workloads.workload("toolkit-50", tiny=True), 1, str(tmp_path), tracer)
    outcomes = {name: workloads.run_cli_edge(argv, expected)
                for name, argv, expected in workloads.cli_edge_cases(str(tmp_path))}
    assert len(outcomes) == 5
    assert all(ok for ok, _ in outcomes.values()), outcomes


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]])
def test_benchmark_runs(workload):
    """Each benchmark workload runs end to end on tiny inputs, so a renamed
    or removed keyword that perfbench passes to the program fails here."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--tiny", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
