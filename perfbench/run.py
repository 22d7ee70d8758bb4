#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_warm|serve_sorted|mutate_mixed \
        --seed N --seconds S --trace 0|1 [--scale full|smoke]

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout; the index files and the span file of a traced run go there too.
The last line of standard output is the run's JSON result.  Build output
and diagnostics go to standard error.  See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm", "serve_sorted", "mutate_mixed")
# The program must end within 180 s of its start; the build is not counted.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(bdir, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--dir", work]
    if args.trace == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException as e:
        proc.kill()
        proc.wait()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
