#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload opt-ml --seed 1 --seconds 45 --trace 0

The runner and libaigml are built (Release) under the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset.  Each run gets a fresh
temporary directory there for AIGML_CACHE_DIR and the model files, deleted
when the run ends.  The run's record and result are the last two lines of
standard output; build and progress output go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("opt-ml", "opt-gt", "serve")
RUN_LIMIT_S = 175  # every run ends within 180 s ...
FIRST_RUN_LIMIT_S = 890  # ... except the one that builds


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave nothing half-configured behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_runner")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    first = not os.path.exists(os.path.join(build_dir, "perfbench_runner"))
    runner = build(build_dir)
    if runner is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs_dir)
    env = dict(os.environ, AIGML_CACHE_DIR=workdir)
    limit = (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S) - (time.monotonic() - start)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--state-dir", os.path.join(build_dir, "state")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, limit))
    except subprocess.TimeoutExpired:
        print("perfbench: runner exceeded the run time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print("perfbench: runner failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if result["correct"] and names is not None and set(result["metrics"]) != names:
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(result["metrics"]), sorted(names)), file=sys.stderr)
        return 1
    print(lines[-2])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
