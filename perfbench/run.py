#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chat-sim --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the program from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary with the same arguments. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. Without
--workload it runs the workloads of BENCHMARK.json in turn and fails if
any of them fails. decode-mem, an extra that is not gated, runs only
when named.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chat-sim", "rag-daemon")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_serving",
         "-j", "4"],
        check=True, stdout=sys.stderr)


def git_state():
    """Git revision and dirty flag, or ("unknown", "0") outside a repo."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], check=True,
                               capture_output=True, text=True).stdout.strip()
        return rev, "1" if dirty else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "0"


def main():
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench")
    build_dir = os.path.join(out_dir, "build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    rev, dirty = git_state()
    command = [os.path.join(build_dir, "perfbench_serving"), *sys.argv[1:],
               "--out", out_dir, "--git-rev", rev, "--git-dirty", dirty]
    if "--workload" in sys.argv:
        return subprocess.run(command).returncode
    return max(subprocess.run(command + ["--workload", name]).returncode
               for name in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
