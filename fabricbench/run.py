#!/usr/bin/env python3
"""Builds and runs the DumbNet fabric benchmark.

Run from the repository root:

    python3 fabricbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dataplane_steady, cold_flow_setup, link_churn, wire_echo.

The first run configures and builds fabricbench/ into .bench_build (the
library comes from the repository's own CMake project, in Release); later runs
only rebuild what changed. Build output goes to stderr. The benchmark program
then runs the workload, and the last line of stdout is its result object. The
exit code is the program's, or non-zero with no result when the build or run
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(bench_dir):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", bench_dir, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "fabricbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("fabricbench: run from the repository root; no src/CMakeLists.txt here",
              file=sys.stderr)
        return 2
    try:
        build(bench_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"fabricbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [os.path.join(BUILD_DIR, "fabricbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fabricbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
