#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark driver from source (servebench/CMakeLists.txt, which
compiles the engine from src/) and runs one workload:

  python3 servebench/run.py --workload warm-mix --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench). The last line of standard output is the
result JSON; build output goes to standard error. Exit code 0 means every
answer was correct; anything else means no trustworthy result.

  python3 servebench/run.py --write-expected

recomputes servebench/expected.txt (the stored answers) with YTD.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-count", "warm-mix", "read-write")
# The run itself must end within 180 s; the first run may also build.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if not args.write_expected and (args.workload is None or args.seed is None
                                    or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    # Relative paths keep the AF_UNIX socket paths short.
    build_dir = os.path.relpath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "servebench"))
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "servebench")
    expected = os.path.relpath(os.path.join(HERE, "expected.txt"))
    if args.write_expected:
        cmd = [exe, "--write-expected", expected]
        return subprocess.run(cmd).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir, "--expected", expected]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the driver before raising.
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
