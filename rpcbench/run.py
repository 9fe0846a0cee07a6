#!/usr/bin/env python3
"""Builds and runs the HeidiRMI RPC benchmark (see README.md).

    python3 rpcbench/run.py --workload unary_tcp --seed 1 --seconds 10 --trace 0
    python3 rpcbench/run.py --workload fanin_tcp --seed 1 --trace 1
    python3 rpcbench/run.py --self-test

Run from the repository root (or anywhere: paths are resolved from this
file). The first run configures and builds into .bench_build/ at the
repository root; later runs only rebuild what changed. Build output goes
to stderr, so the benchmark's last stdout line stays its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("rpcbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "orb", "orb.h")):
        fail("no HeidiRMI sources next to rpcbench/ (expected src/orb/orb.h)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["rpcbench_selftest"])
        sys.exit(subprocess.run([os.path.join(BUILD, "rpcbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["rpcbench"])
    command = [os.path.join(BUILD, "rpcbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
