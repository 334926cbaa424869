"""Fast self-check of the benchmark harness (well under a minute).

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It runs every workload of BENCHMARK.json
on tiny inputs, untraced and traced, and checks that

  * the last line is the result object with exactly the keys `correct`,
    `attempted`, `failed` and `metrics`, and `correct` is true;
  * every metric value is finite, and every end-to-end value above zero;
  * every kind of correctness check ran at least once;
  * only toolkit-50 has failed operations, and only its CLI edge operations;

and that run.py, started in a directory that holds only BENCHMARK.json and
the benchmark's own files, exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CHECK_KINDS = {
    "inputs-repeat", "outputs-repeat", "counts-repeat",
    "score-equals-rescore", "order-is-permutation", "tag-in-candidates",
    "beam1-commits-max", "reload-same-output", "mft-matches-recount",
    "lemma-round-trip", "lemma-count", "evaluate-matches-recount",
    "confusion-matches-recount", "ambiguity-matches-recount",
    "rules-never-raise-ambiguity", "audit-covers-rules", "derived-rules-safe",
    "exhaustive-matches-recount", "units-repeat", "spans-well-formed",
}
TRACED_CHECK_KINDS = {"traced-counts-repeat"}


def run(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    for spec in bench["workloads"]:
        name = spec["name"]
        for trace in (0, 1):
            before = len(problems)
            proc = run(root, name, trace)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: correct is {result['correct']}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and isinstance(result["failed"], int)
                   and 0 <= result["failed"] <= result["attempted"],
                   f"{where}: attempted {result['attempted']} failed {result['failed']}")
            for k, v in result["metrics"].items():
                value = v["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value)
                       and (trace or value > 0), f"{where}: {k} = {value!r}")
            ran = {}
            for line in lines:
                if line.startswith("checks "):
                    ran = dict(item.split("=") for item in line.split()[1:])
            kinds = CHECK_KINDS | (TRACED_CHECK_KINDS if trace else set())
            expect(all(int(ran.get(k, 0)) > 0 for k in kinds),
                   f"{where}: checks that did not run: "
                   f"{sorted(k for k in kinds if int(ran.get(k, 0)) == 0)}")
            cli_failed = sum(line.startswith("cli ") and "FAILED" in line for line in lines)
            if name == "toolkit-50":
                expect(any(line.startswith("cli ") for line in lines),
                       f"{where}: no CLI edge operations ran")
            expect(result["failed"] == 0 or cli_failed > 0,
                   f"{where}: {result['failed']} failed operations besides the CLI edge ones")
            print(f"{where}: " + ("; ".join(problems[before:]) or "ok"), flush=True)

    bare = os.path.join(root, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        proc = run(bare, bench["workloads"][0]["name"], 0, tiny=False)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"without the program: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
