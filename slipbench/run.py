#!/usr/bin/env python3
"""Build and run the slipstream end-to-end benchmark.

Run from the repository root:

    python3 slipbench/run.py --workload paper-cmp --seed 1 --seconds 20 --trace 0

The first run configures and builds slipbench/ (the simulator library
from src/ plus the benchmark program) into $CARGO_TARGET_DIR/slipbench, default
.bench_build/slipbench; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: 0 when every correctness check passed.
`--workload all` runs the four workloads in turn and fails if any does.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-cmp", "ss-scaling", "fault-campaign", "serve-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(
            ["cmake", "--build", build_dir, "--target", "slipbench", "-j",
             jobs], stdout=sys.stderr, timeout=BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "slipbench")
    try:
        if not build(build_dir):
            print("slipbench: build failed", file=sys.stderr)
            return 2
    except subprocess.TimeoutExpired:
        print("slipbench: build timed out", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run(build_dir, target, workload, args))
    return status


def run(build_dir, target, workload, args):
    """Run the benchmark on one workload; its exit code (3 on timeout)."""
    cmd = [os.path.join(build_dir, "slipbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmpdir", os.path.join(target, "run-%d" % os.getpid())]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("slipbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
