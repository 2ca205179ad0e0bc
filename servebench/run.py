#!/usr/bin/env python3
"""Builds and runs one servebench workload; prints the result as the last line.

Run from the root of a source checkout:

    python3 servebench/run.py --workload get_hot --seed 1 --seconds 10 --trace 0

The benchmark is compiled from the checkout's src/ into the build directory
($CARGO_TARGET_DIR, default .bench_build) as a Release build; any other build
type is refused. Data files live in one scratch directory under the build
directory and are removed when the run ends. Traced runs (--trace 1) leave
their layer spans in <build>/spans/.

stdout: one provenance line ({"provenance": ..., "info": ...}), then the
result line {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
when a result was printed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def cache_value(cache, key):
    with open(cache) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build(out):
    """Configures and builds the Release binary; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    cache = os.path.join(out, "CMakeCache.txt")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
            return None
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        log(f"servebench: refusing build type '{build_type}' in {out}")
        return None
    for key in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"):
        if "-fsanitize" in cache_value(cache, key):
            log(f"servebench: refusing sanitizer flags in {key}")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "servebench")


def git_sha():
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return None
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def tree_sha():
    """sha256 over the engine and benchmark sources, names and contents."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small divides table and pool sizes by 8 (checks)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("servebench: build failed")
        return 2

    scratch = os.path.join(out, "scratch", f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch, "--scale", args.scale]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.csv")]
    # Own process group, so that a run that overstays is killed whole,
    # its crash-tail writer included.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("servebench: run timed out")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        log(f"servebench: exit code {proc.returncode}")
        return proc.returncode
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("servebench: no result line")
        return 4
    raw = json.loads(lines[-1])

    provenance = {
        "git_sha": git_sha(),
        "source_tree_sha256": tree_sha(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cpu_model": cpu_model(),
        "build_type": cache_value(os.path.join(out, "CMakeCache.txt"),
                                  "CMAKE_BUILD_TYPE"),
        "scale": args.scale,
    }
    print(json.dumps({"provenance": provenance, "info": raw.get("info", {})}))
    result = {k: raw[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
