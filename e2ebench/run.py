#!/usr/bin/env python3
"""Builds the end-to-end table-search benchmark from source and runs it.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the repository's
libraries are built in Release mode under .bench_build/e2ebench (cmake
output goes to stderr); the run's sockets, saved lake and trace files go to
.bench_build/e2ebench-run. The last line of stdout is the run's JSON
result. A build that is not Release is refused, as scripts/record_bench.sh
refuses one.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ("csv_query", "vector_scan", "churn", "distributed_scan")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        sys.exit("e2ebench: no repository sources next to the benchmark; "
                 "run it from a full checkout")
    # Relative paths keep AF_UNIX socket names short whatever the checkout
    # path is (the kernel caps them at 107 bytes).
    os.chdir(root)
    build = os.path.join(".bench_build", "e2ebench")
    workdir = os.path.join(".bench_build", "e2ebench-run")

    for step in (["cmake", "-S", "e2ebench", "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build, "-j4", "--target", "e2e_bench"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(step))

    with open(os.path.join(build, "CMakeCache.txt")) as f:
        if not re.search(r"^CMAKE_BUILD_TYPE:STRING=Release$", f.read(), re.M):
            sys.exit("e2ebench: %s is not a Release build; refusing to run" % build)

    shutil.rmtree(workdir, ignore_errors=True)
    proc = subprocess.run(
        [os.path.join(build, "e2e_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--workdir", workdir])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
