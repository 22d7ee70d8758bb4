#!/usr/bin/env python3
"""The benchmark's own checks, run from the root of a checkout.

    python3 perfbench/check.py smoke
        Runs every workload at the smoke scale (tiny columns, one second of
        queries), untraced and traced, serve_warm included although
        BENCHMARK.json does not list it, and fails unless each run exits 0,
        reports correct results and no failed operation, and prints exactly
        the metrics BENCHMARK.json names.  Takes well under a minute.

    python3 perfbench/check.py steady [--runs 10] [--seed 1]
                                      [--workload NAME ...]
        Runs each workload --runs times at full scale, seeds --seed,
        --seed+1, ..., and prints for every end-to-end metric the median,
        the quartiles and the quartile spread as a share of the median,
        against a third of the metric's bound.  Exits 1 when a spread other
        than setup_s's exceeds that, or when the share of failed operations
        differs between runs.  The raw result lines are kept in
        $CARGO_TARGET_DIR/perfbench/steady.jsonl (default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, scale):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d: exit %d" %
                         (workload, seed, trace, proc.returncode))
    return json.loads(lines[-1])


def smoke(bench):
    wanted = {0: [m["name"] for m in bench["end_to_end"]],
              1: [m["name"] for m in bench["per_layer"]]}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, 1, 1, trace, "smoke")
            problems = []
            if result["correct"] is not True:
                problems.append("incorrect results")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("attempted %d, failed %d" %
                                (result["attempted"], result["failed"]))
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                problems.append("metrics %s" % sorted(result["metrics"]))
            print("%-13s trace %d: %s" % (name, trace,
                                          "; ".join(problems) or "ok"))
            bad += bool(problems)
    return 1 if bad else 0


def steady(bench, runs, seed, workloads):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_path = os.path.join(ROOT, base, "perfbench", "steady.jsonl")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    bad = 0
    with open(out_path, "a") as log:
        for name in workloads:
            results = []
            for i in range(runs):
                r = run(name, seed + i, bench["run_seconds"], 0, "full")
                log.write(json.dumps({"workload": name, "seed": seed + i,
                                      "result": r}) + "\n")
                log.flush()
                results.append(r)
            shares = {r["failed"] / r["attempted"] for r in results}
            print("%s: %d runs, seeds %d..%d, failed share %s" %
                  (name, runs, seed, seed + runs - 1, sorted(shares)))
            if len(shares) != 1 or any(not r["correct"] for r in results):
                bad += 1
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                limit = m["bound"] / 3
                ok = spread <= limit or m["name"] == "setup_s"
                bad += not ok
                print("  %-14s median %14.4f  q1 %14.4f  q3 %14.4f  "
                      "spread %6.3f  bound/3 %6.3f %s" %
                      (m["name"], med, q1, q3, spread, limit,
                       "" if ok else "TOO WIDE"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("smoke")
    st = sub.add_parser("steady")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--seed", type=int, default=1)
    st.add_argument("--workload", action="append")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.mode == "smoke":
        return smoke(bench)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    return steady(bench, args.runs, args.seed, names)


if __name__ == "__main__":
    sys.exit(main())
