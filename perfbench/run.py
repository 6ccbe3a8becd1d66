#!/usr/bin/env python3
"""Builds and runs the server benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload analytics|mixed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built from source
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero on a build failure,
a wrong answer, or a crash.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytics", "mixed")


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "server_bench"],
    ]
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(root, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(target, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "server_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--git-sha", git_sha(root),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
