#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tpcc_lc --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench (the engine library from src/
plus the measuring program in perfbench/src) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed. The
workload's set-up comes from perfbench/workloads.json. Build output and the
program's human-readable report go to stderr. The last line on stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics are
the end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The exit code is 0 only if the run was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is a few set-ups plus a timed phase whose host time grows with
# --seconds (tpch_dw's is fixed work of about 20 host seconds); a traced
# run sets up and runs the phase twice. The allowance leaves about twice
# the run time measured on a 4-core 2.0 GHz Xeon VM.
SETUP_ALLOWANCE_S = 60
HOST_S_PER_SECOND = 3


def run_timeout_s(seconds, trace):
    return SETUP_ALLOWANCE_S + HOST_S_PER_SECOND * seconds * (1 + trace)


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    cmd = [build(build_dir()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--param", f"{key}={value}"]
    timeout = run_timeout_s(args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout:.0f} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"perfbench printed no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])

    # The program must report exactly the metrics BENCHMARK.json declares,
    # each with its declared unit.
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing or mis-unitted")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")

    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
