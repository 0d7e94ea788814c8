#!/usr/bin/env python3
"""Run one workload of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark from source on first use (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's inputs and oracle from the seed in a separate process, then
measures for S seconds.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, if the build, the inputs or the run
fail.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("backbone_saturate", "detectors_paced", "tenant_churn",
             "fleet_k16")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # prepare + measure together, inside the 180 s limit


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)


def work_dir(bdir, binary):
    """Input/oracle cache, keyed by the driver binary: a rebuilt benchmark
    (or library) never reads inputs or oracles another build generated."""
    with open(binary, "rb") as f:
        key = hashlib.sha1(f.read()).hexdigest()[:16]
    root = os.path.join(bdir, "work")
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        if name != key:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return os.path.join(root, key)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    binary = os.path.join(bdir, "newton_perfbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", work_dir(bdir, binary)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # Inputs and the oracle come from their own process, so neither
        # their time nor their memory shows in the measured run.
        subprocess.run(base + ["--prepare"], stdout=sys.stderr, check=True,
                       timeout=RUN_TIMEOUT_S)
        out = subprocess.run(base, stdout=subprocess.PIPE, check=True,
                             text=True,
                             timeout=max(1, deadline - time.monotonic())).stdout
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
