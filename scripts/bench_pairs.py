#!/usr/bin/env python3
"""Runs the repository benchmark on two checkouts in alternating pairs.

Usage, from anywhere:

    scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seconds 20 \\
        --seed 1 [--workload tpch_dw ...] [--out BENCH_x.json]

Each run is the checkout's own, unmodified `python3 perfbench/run.py
--workload W --seed K --seconds S --trace 0`, started in that checkout with
its own CARGO_TARGET_DIR (CHECKOUT/.bench_build unless --build-root is
given), so the two sides never share a build tree. Pair i runs every
workload once on each side; the side that runs first alternates from pair to
pair. The first run of a side also builds it, before its timed phase.

The JSON written to --out (or stdout) holds every run's metrics and, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change's wins over the parent in the pairs (ties count for
neither side), and two verdicts:
  - "gain": the change won at least 9 of 10 pairs, the medians differ by
    more than the parent's interquartile range, and no larger share of the
    change's operations failed;
  - "within_bound": the change's median is not worse than the parent's by
    more than the metric's bound ("spread_exceeds_bound" marks a metric
    whose parent runs alone spread wider than that bound).
For each virt_* metric it says whether the two sides' values are identical.
Where one side's own runs already disagree, the metric does not depend on
the seed alone on that workload (tpcc_mem_mt's virtual clock is the wall),
and "identical" is null.

Progress and the benchmark's build output go to stderr. Exit status: 0 when
every run was correct, 1 otherwise, 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def fail(msg, code=2):
    print(f"bench_pairs.py: {msg}", file=sys.stderr)
    sys.exit(code)


def git(checkout, *args):
    proc = subprocess.run(["git", "-C", checkout, *args], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(checkout):
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    # The trees perfbench builds from: they identify the measured code even
    # after a later commit that only adds documents or results.
    trees = {d: git(checkout, "rev-parse", f"HEAD:{d}")
             for d in ("src", "bench", "perfbench")}
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status),
            "trees": trees}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_once(checkout, target_dir, workload, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=sys.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "exit_code": proc.returncode,
        "correct": proc.returncode == 0 and bool(result.get("correct")),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "wall_s": round(time.monotonic() - start, 1),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_metric(spec, runs, more_failures):
    name = spec["name"]
    lower = spec["better"] == "lower"
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
             for r in runs
             if name in r["parent"]["metrics"]
             and name in r["change"]["metrics"]]
    if not pairs:
        return {"unit": spec["unit"], "pairs": 0}
    out = {"unit": spec["unit"], "better": spec["better"],
           "bound": spec["bound"], "pairs": len(pairs)}
    for i, side in enumerate(SIDES):
        values = [p[i] for p in pairs]
        q1, q3 = quartiles(values)
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "min": min(values), "max": max(values)}
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    ties = sum(1 for p, c in pairs if c == p)
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["change_wins"] = wins
    out["ties"] = ties
    out["change_over_parent"] = cm / pm if pm else None
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    improved = cm < pm if lower else cm > pm
    out["gain"] = (wins * 10 >= 9 * len(pairs) and improved
                   and abs(cm - pm) > iqr and not more_failures)
    worse = (cm - pm) if lower else (pm - cm)
    out["within_bound"] = worse <= spec["bound"] * abs(pm)
    # Where the parent's own spread exceeds the bound, "within_bound" alone
    # cannot tell a regression from noise.
    out["spread_exceeds_bound"] = iqr > spec["bound"] * abs(pm)
    return out


def virt_identity(runs):
    names = sorted({k for r in runs for side in SIDES
                    for k in r[side]["metrics"] if k.startswith("virt_")})
    out = {}
    for name in names:
        values = {side: sorted({r[side]["metrics"].get(name) for r in runs})
                  for side in SIDES}
        deterministic = all(len(v) == 1 for v in values.values())
        out[name] = {
            "identical": (values["parent"] == values["change"]
                         if deterministic else None),
            "parent_values": values["parent"],
            "change_values": values["change"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append",
                    help="repeat to pick several (default: every workload)")
    ap.add_argument("--build-root",
                    help="build under BUILD_ROOT/parent and BUILD_ROOT/change")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    dirs = {}
    for side, d in zip(SIDES, (args.parent_dir, args.change_dir)):
        d = os.path.abspath(d)
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            fail(f"{d} holds no perfbench/run.py")
        dirs[side] = d
    if args.build_root:
        root = os.path.abspath(args.build_root)
        targets = {side: os.path.join(root, side) for side in SIDES}
    else:
        targets = {side: os.path.join(dirs[side], ".bench_build")
                   for side in SIDES}
    if targets["parent"] == targets["change"]:
        fail("the two checkouts would share one build tree")

    bench = {}
    for side in SIDES:
        with open(os.path.join(dirs[side], "BENCHMARK.json")) as f:
            bench[side] = json.load(f)["end_to_end"]
    if bench["parent"] != bench["change"]:
        fail("the checkouts declare different end-to-end metrics; "
             "paired runs compare one benchmark")
    with open(os.path.join(dirs["parent"], "perfbench",
                           "workloads.json")) as f:
        known = sorted(json.load(f)["workloads"])
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            fail(f"unknown workload {w!r}; have {known}")

    runs = {w: [] for w in workloads}
    all_correct = True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"pair": i + 1, "first": order[0]}
            for side in order:
                print(f"bench_pairs.py: pair {i + 1}/{args.pairs} {w} {side}",
                      file=sys.stderr, flush=True)
                pair[side] = run_once(dirs[side], targets[side], w, args)
                all_correct &= pair[side]["correct"]
            runs[w].append(pair)

    report = {
        "about": "Paired runs of the repository benchmark (perfbench/run.py "
                 "--trace 0), parent against change, alternating which side "
                 "runs first; written by scripts/bench_pairs.py.",
        "parent": describe(dirs["parent"]),
        "change": describe(dirs["change"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for w in workloads:
        failed = {s: sum(r[s]["failed"] or 0 for r in runs[w]) for s in SIDES}
        attempted = {s: sum(r[s]["attempted"] or 0 for r in runs[w])
                     for s in SIDES}
        more_failures = (failed["change"] * max(attempted["parent"], 1) >
                         failed["parent"] * max(attempted["change"], 1))
        report["workloads"][w] = {
            "all_correct": all(r[s]["correct"] for r in runs[w]
                               for s in SIDES),
            "attempted": attempted,
            "failed": failed,
            "metrics": {spec["name"]: summarize_metric(spec, runs[w],
                                                       more_failures)
                        for spec in bench["parent"]},
            "virt_identity": virt_identity(runs[w]),
            "runs": runs[w],
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
