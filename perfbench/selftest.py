#!/usr/bin/env python3
"""Self-test of the query-set benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload cr-small] [--seed 1]

Checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json;
  * two traced runs with the same seed print every per-layer metric and
    agree exactly on the counts that must repeat (Spark jobs, CycleRank
    support, forward ball);
  * the benchmark fails, without printing a result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_REPEAT = ("spark.jobs", "cr.support", "graph.fwd_ball")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="cr-small")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    code, out = run(args.workload, args.seed, 0)
    result = json.loads(out[-1])
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in result["metrics"]]
    if code != 0 or not result["correct"] or missing:
        failures.append(f"untraced run: exit {code}, correct={result['correct']}, missing {missing}")

    traced = []
    for _ in range(2):
        code, out = run(args.workload, args.seed, 1)
        result = json.loads(out[-1])
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result["metrics"]]
        if code != 0 or not result["correct"] or missing:
            failures.append(f"traced run: exit {code}, correct={result['correct']}, missing {missing}")
        traced.append(result["metrics"])
    for name in MUST_REPEAT:
        a, b = (t.get(name, {}).get("value") for t in traced)
        if a is None or a != b:
            failures.append(f"{name} differs between two traced runs: {a} vs {b}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("target", "__pycache__"))
    code, out = run(args.workload, args.seed, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in out):
        failures.append(f"run without the program sources exited {code} with output {out[-1:]}")

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
