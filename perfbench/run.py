#!/usr/bin/env python3
r"""Build the sgq benchmark harness from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload so-deletes --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --self-test

The harness (perfbench/src) and the engine library are built with CMake in
Release mode under $CARGO_TARGET_DIR (default .bench_build), relative to
the current directory. Build output goes to stderr; the harness's last line
of stdout is the JSON result. The exit code is the harness's: 0 when every
operation succeeded and every result matched the oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness's self-tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    target = "perfbench_selftest" if args.self_test else "sgq_perfbench"
    if not build(build_dir, target):
        return 2
    binary = os.path.join(build_dir, target)
    if args.self_test:
        cmd = [binary]
        work_dir = build_dir
    else:
        work_dir = os.path.join(out_root, "perfbench-run")
        os.makedirs(work_dir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=work_dir,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("harness timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
