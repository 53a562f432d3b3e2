#!/usr/bin/env python3
"""jdrag's benchmark: record, analyse and fleet pipelines, end to end.

Run from the root of a jdrag checkout:

  python3 perfbench/run.py --workload record-churn --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

The first command builds perfbench/ -- which compiles jdrag's own
sources from src/ -- into .bench_build/, runs one workload and prints
the harness's JSON result as the last line of stdout. --trace 1 prints
the per-layer metrics instead of the end-to-end ones. --smoke runs every
workload at scale 1, untraced on its Table 2 inputs and traced on drawn
ones, with all output checks, and fails unless every check passes and
every metric named in BENCHMARK.json is reported. perfbench/NOTES.md
describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ["record-churn", "analyse-mix", "fleet"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        steps.append(["cmake", "-S", here, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return None
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def run_harness(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (parsed result or None, last stdout line)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.join(BUILD_DIR, "work", workload), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, ""
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload} exited with code {done.returncode}")
        return None, ""
    try:
        return json.loads(lines[-1]), lines[-1]
    except ValueError:
        log(f"{workload} printed no JSON result")
        return None, ""


def metric_names(kind):
    """Metric names BENCHMARK.json declares under `kind`, if it is here."""
    try:
        with open("BENCHMARK.json") as f:
            return [m["name"] for m in json.load(f)[kind]]
    except (OSError, ValueError, KeyError):
        return []


def smoke(exe):
    """Every workload at scale 1, with all checks: untraced on its Table 2
    inputs (seed 0), then traced on drawn inputs (seed 1)."""
    ok = True
    for workload in WORKLOADS:
        for seed, trace, kind in ((0, 0, "end_to_end"), (1, 1, "per_layer")):
            result, _ = run_harness(exe, workload, seed, 0.5, trace,
                                    ["--scale", "1", "--min-ops", "1"])
            missing = [] if result is None else [
                n for n in metric_names(kind) if n not in result["metrics"]]
            good = (result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0
                    and not missing)
            log(f"smoke {workload} trace={trace}: "
                + ("ok" if good else f"FAILED {result} missing={missing}"))
            ok &= good
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")

    exe = build()
    if exe is None:
        return 2
    if args.smoke:
        return smoke(exe)
    result, line = run_harness(exe, args.workload, args.seed, args.seconds,
                               args.trace)
    if result is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
