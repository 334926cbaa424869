"""Reference figures: run each workload once per seed and summarise.

    python3 perfbench/reference.py --seeds 1-10
    python3 perfbench/reference.py --workloads tagger-680-all --seeds 1-5 --trace 1

Run from the root of a checkout.  Each run is its own process, started only
after the previous one has ended, with BENCHMARK.json's run_seconds.  For
every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, next to the
metric's bound in BENCHMARK.json.  It also prints each workload's share of
failed operations, and the raw results go to .perfbench/reference-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, **r})
            print(f"{workload} seed {seed}: correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} bound")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:36} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{bound if bound is not None else '-'}{flag}")
        print(flush=True)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"reference-{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
