#!/usr/bin/env python3
"""Self-checks of servebench, quick enough to run before every use.

1. The verifier catches every kind of wrong answer (servebench --selftest):
   a stale version, a corrupted column, a torn row, another row, a missing
   row.
2. A small-size run of every workload, untraced and traced, is correct, fails
   no operation and emits exactly the metrics of BENCHMARK.json, each with
   its declared unit.

    python3 servebench/check.py        # from the root of the checkout
"""

import json
import os
import subprocess
import sys

import run as bench

SECONDS = 2


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build(bench.build_dir())
    if binary is None:
        print("build failed")
        return 1
    bad = 0
    selftest = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True)
    print(selftest.stdout, end="")
    if selftest.returncode != 0:
        print("FAIL verifier selftest")
        bad += 1

    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
                   "--workload", w["name"], "--seed", "7", "--seconds",
                   str(SECONDS), "--trace", str(trace), "--scale", "small"]
            proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True,
                                  text=True)
            label = f"{w['name']} trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                bad += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"correct={result['correct']} "
                                f"failed={result['failed']}")
            if not (isinstance(result["attempted"], int) and
                    result["attempted"] >= 1):
                problems.append(f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append(f"missing {missing} extra {extra} units {units}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"not positive: {zero}")
            print(("FAIL " if problems else "ok   ") + label +
                  ("" if not problems else ": " + "; ".join(problems)))
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
