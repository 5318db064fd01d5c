#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
xdgp library from src/) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload churn-serve --seed 1 --seconds 20 --trace 0

The driver's last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build logs go to stderr.
Run it from the root of a checkout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build("xdgp_perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
