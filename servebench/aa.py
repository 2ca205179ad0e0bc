#!/usr/bin/env python3
"""A/A check for servebench: is the benchmark steady enough for its bounds?

Runs the same code in repeated, alternating sets (round i runs set A then
set B, round i+1 runs B then A, every run with its own seed) and prints,
per workload and end-to-end metric, each set's median and quartiles, the
spread (interquartile distance over the median) and whether the sets agree
within the bounds of BENCHMARK.json:

  - the spread of every metric except setup_s is within its bound, and
  - no set's median is worse than the first set's by more than the bound, and
  - every set fails the same share of its operations.

Two saved results made at different times compare the same way.

    python3 servebench/aa.py run --runs 10 --sets 2 --out aa-1.json
    python3 servebench/aa.py compare aa-1.json aa-2.json

Run from the root of the checkout. Uses only the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]).get("info", {}) if len(lines) > 1 else {}
    print(f"  {workload:14s} seed {seed:6d}  {wall:5.1f}s  "
          f"steal {info.get('steal_s', -1):.2f}s  correct {result['correct']}",
          flush=True)
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "steal_s": info.get("steal_s"), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "info": info}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, base, other):
    """Share by which `other` is worse than `base` in the metric's direction."""
    if base == 0:
        return 0.0
    delta = (other - base) / base
    return delta if metric["better"] == "lower" else -delta


def report(sets, bench):
    """Prints the table; returns True when every set agrees within bounds."""
    ok = True
    workloads = sorted({r["workload"] for s in sets for r in s})
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':22s} " + "  ".join(
            f"{'set ' + chr(65 + i):>34s}" for i in range(len(sets))) +
            "   bound  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in sets:
                vals = [r["metrics"][name] for r in s if r["workload"] == w]
                stats.append(summarize(vals) if len(vals) >= 2 else None)
            if any(st is None for st in stats):
                continue
            verdict = "ok"
            for i, st in enumerate(stats):
                if name != "setup_s" and st["spread"] > bound:
                    verdict = f"spread {chr(65 + i)}"
                if i > 0 and worse_by(m, stats[0]["median"], st["median"]) > bound:
                    verdict = f"median {chr(65 + i)}"
            ok &= verdict == "ok"
            cells = "  ".join(
                f"{st['median']:>11.5g} [{st['q1']:.4g},{st['q3']:.4g}] "
                f"{100 * st['spread']:4.1f}%" for st in stats)
            print(f"  {name:22s} {cells}   {bound:5.2f}  {verdict}")
        shares = []
        for s in sets:
            runs = [r for r in s if r["workload"] == w]
            shares.append(sum(r["failed"] for r in runs) /
                          max(1, sum(r["attempted"] for r in runs)))
        same = all(x == shares[0] for x in shares)
        ok &= same and all(r["correct"] for s in sets for r in s)
        print(f"  failed share per set: {shares} ({'same' if same else 'DIFFERENT'})")
    return ok


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10, help="runs per set")
    run.add_argument("--sets", type=int, default=2)
    run.add_argument("--workloads", default="",
                     help="comma-separated (default: all in BENCHMARK.json)")
    run.add_argument("--seed-base", type=int, default=1000)
    run.add_argument("--out", default="")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("files", nargs="+")
    args = ap.parse_args()
    bench = spec()

    if args.cmd == "compare":
        sets = []
        for path in args.files:
            with open(path) as f:
                sets.append([r for s in json.load(f)["sets"] for r in s])
        return 0 if report(sets, bench) else 1

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    sets = [[] for _ in range(args.sets)]
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            print(f"round {i + 1}/{args.runs}, set {chr(65 + s)}", flush=True)
            for w in workloads:
                seed = args.seed_base + 1000 * s + i
                sets[s].append(one_run(w, seed, bench["run_seconds"]))
    ok = report(sets, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"started": started, "sets": sets}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
