#!/usr/bin/env python3
"""Builds and runs the parparaw end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload quoted_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles the library and the benchmark
(Release) under $CARGO_TARGET_DIR (default .bench_build) in the repository
root; later calls rebuild incrementally. Build output goes to stderr, so the
benchmark's JSON result is the last line of stdout. The exit code is the
benchmark's: non-zero when the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-run limit of the benchmark binary itself (the build is not counted).
RUN_TIMEOUT_S = 175


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configured = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configured.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if built.returncode != 0:
        return None
    return os.path.join(build_dir, target)


def run(command):
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["quoted_read", "numeric_stream", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    binary = build(target)
    if binary is None:
        print(f"build of {target} failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run([binary])
    work_dir = os.path.join(build_root(), "run")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
