#!/usr/bin/env python3
"""Builds and runs the hydra end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload disk-exact --seed 1 --seconds 45 \
        --trace 0

Configures and builds perfbench/ (which compiles the repository's src/)
into $CARGO_TARGET_DIR or .bench_build/, then runs one measurement. Build
output goes to stderr; the binary's stdout is relayed, and its last line
is the result object. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("disk-exact", "mem-approx", "wire-dup")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MALLOC_TUNABLES = "glibc.malloc.hugetlb=1"


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "hydra_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "hydra_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    # Back malloc's memory with transparent huge pages: with 4 KiB pages,
    # the page walks of mem-approx's scattered reads made its qps spread
    # about twice as much (see README.md).
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
