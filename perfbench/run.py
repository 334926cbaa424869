"""morphtag benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload tagger-680-all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ./src and
nothing else, and reads the metric names and units from ./BENCHMARK.json.
It runs whole rounds until `--seconds` have passed (at least three, five
when traced).  Each round sets up the inputs (generate, write as text, parse
back) and runs every stage of the workload once.  The first
round is untraced and verified by the checks in checks.py; later rounds must
reproduce its inputs, outputs and counts exactly.

Each stage is timed in units of work that repeat identically in every round
(one unit per decoded sentence, per set-up step, per audit walk, ...).
After every unit a fixed reference loop, the probe, measures how fast the
shared host is running (hostspeed.py).
--trace 0 reports the end-to-end metrics: each stage's time in a round,
divided by that round's host slowness, median over the rounds after round 0.
--trace 1 reports the per-layer metrics (medians over traced rounds, times
scaled by the probes of their round).
Traced and untraced rounds alternate after round 0; the median extra scaled
time of a traced round over the untraced one before it is the tracing
overhead.

The last line of standard output is the JSON result; the lines before it
give the input digests, the workload's make-up, the checks that ran and the
outcome of each failed operation.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time


def quiesce():
    """Collect garbage and move every surviving object (inputs, reference
    data, spans) out of the cycle collector's scans, so that a full
    collection over the harness's own data does not land at random inside a
    short timed phase."""
    gc.collect()
    gc.freeze()


def _import_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "morphtag", "__init__.py")):
        raise SystemExit(f"perfbench: {src}/morphtag not found; run from the root of a "
                         "morphtag checkout")
    # One thread: the figures measure the program, not the scheduler.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import morphtag
    if os.path.dirname(os.path.abspath(morphtag.__file__)) != os.path.join(src, "morphtag"):
        raise SystemExit(f"perfbench: imported morphtag from {morphtag.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the harness self-check")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    _import_program(root)
    import checks as ck
    import hostspeed
    import workloads as wl
    from tracing import Tracer

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    w = wl.workload(args.workload, args.tiny)
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"{w.name}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer()
    host = hostspeed.HostProbe()
    tracer.on_phase_end = host.after
    checks = ck.Checks()
    try:
        inputs = ref = None
        rounds, slowness, layer_rounds, setup_layers, overheads = [], [], [], [], []
        # Whole rounds until --seconds have passed, and at least round 0 plus
        # two timed (or two traced and two untraced) rounds.
        for i in itertools.count():
            if i >= (5 if args.trace else 3) and time.perf_counter() - started >= args.seconds:
                break
            # Round 0 is untraced and verified.  A traced run traces the odd
            # rounds, so each traced round has an untraced neighbour to
            # measure overhead by.
            traced = args.trace and i % 2 == 1
            if traced:
                wl.install_tracing(tracer)
            tracer.clear()
            quiesce()
            fresh = wl.setup(w, args.seed, workdir, tracer)
            if inputs is None:
                inputs, ref = fresh, wl.reference(w, fresh)
                for name, digest in inputs.digests.items():
                    print(f"input {name} sha256:{digest}")
            else:
                checks.expect("inputs-repeat", fresh.digests == inputs.digests,
                              "a later set-up generated different inputs")
            del fresh
            quiesce()
            r = wl.run_round(w, inputs, ref, args.seed, workdir, tracer,
                             checks if i == 0 else None)
            r.probes = host.take()
            slow = hostspeed.slowness(r.probes)
            tracer.unpatch_all()
            problems = tracer.problems(wl.PHASES)
            checks.expect("spans-well-formed", not problems, "; ".join(problems))
            rounds.append(r)
            slowness.append(slow)
            if traced:
                times, counts = wl.round_layers(r, tracer)
                layer_rounds.append(({k: v / slow for k, v in times.items()}, counts))
                setup_layers.append({k: v / slow for k, v in wl.setup_layers(tracer).items()})
                overheads.append(sum(r.seconds.values()) / slow
                                 / (sum(rounds[-2].seconds.values()) / slowness[-2]) - 1)
                last_spans = tracer.spans()
        if args.trace:
            tracer.dump(os.path.join(out_dir, f"spans-{w.name}.tsv"), last_spans)

        first = rounds[0]
        shape = {k: len(v) for k, v in first.units.items()}
        for r in rounds[1:]:
            checks.expect("outputs-repeat", r.output_digest == first.output_digest,
                          "a round produced different outputs")
            checks.expect("counts-repeat", r.counts == first.counts,
                          f"{r.counts} vs {first.counts}")
            checks.expect("units-repeat", {k: len(v) for k, v in r.units.items()} == shape,
                          "a round timed different units")
        for _, counts in layer_rounds[1:]:
            checks.expect("traced-counts-repeat", counts == layer_rounds[0][1],
                          f"{counts} vs {layer_rounds[0][1]}")

        cands = [len(c) for sent in ref.candidate_sets for c in sent]
        print(f"workload {w.name}: tags {w.tags} (inventory {len(ref.inventory)}), "
              f"vocabulary {w.vocab}, sentences {w.sentences} of {w.min_len}-{w.max_len} "
              f"tokens, ambiguity {w.ambiguity}, split {wl.SPLIT}, tagger "
              f"{w.tagger_train}/{w.tagger_test} sentences x {w.epochs} epochs, "
              f"candidates {w.candidates}, rules {len(inputs.rules)}, mean candidate set "
              f"{sum(cands) / len(cands):.2f}, lemma readings {len(ref.readings)}")
        print(f"rounds {len(rounds)} ({len(layer_rounds)} traced); timed units {shape}; "
              f"counts {first.counts}")
        print("checks " + " ".join(f"{k}={v}" for k, v in sorted(checks.ran.items())))
        for failure in checks.failures:
            print(f"check failed: {failure}")
        for name, ok, detail in first.cli_outcomes:
            print(f"cli {name}: {'ok' if ok else 'FAILED'} ({detail})")

        if args.trace:
            times = {k: statistics.median(t[k] for t, _ in layer_rounds)
                     for k in layer_rounds[0][0]}
            metrics = {**times, **layer_rounds[0][1], **first.counts,
                       **{k: statistics.median(s[k] for s in setup_layers)
                          for k in setup_layers[0]}}
            # The first pair starts from the cold, verified round 0.
            metrics["trace.overhead"] = statistics.median(overheads[1:] or overheads)
            print(f"tracing overhead {metrics['trace.overhead']:.1%} of an untraced round "
                  f"(median of {len(overheads[1:] or overheads)} adjacent pairs)")
        else:
            for i, r in enumerate(rounds):
                print(f"round {i}: host slowness {slowness[i]:.3f}, measured " + " ".join(
                    f"{k}={v:.4g}" for k, v in wl.end_to_end(r.seconds, r.tokens).items()))
            # Round 0 is cold and verified; the others are timed.
            metrics = wl.end_to_end(wl.scaled_seconds(rounds[1:]), first.tokens)
            metrics["model_bytes"] = first.counts["model_bytes"]
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "correct": checks.ok,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    finally:
        tracer.unpatch_all()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
