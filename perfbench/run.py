#!/usr/bin/env python3
"""Simulator-throughput benchmark: build, guard, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload memory-bound --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (the benchmark plus the simulator library from
src/) into .bench_build/perfbench with an optimized build type, then
runs the rabperf binary for one workload in a process of its own, so
peak RSS and cache warmth never leak from one workload into the next.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; see perfbench/README.md
for the workloads and every metric.

Exit codes: 0 ran (the result says whether outputs were correct),
1 the run failed or timed out, 2 usage or build failure, 3 refused
because the environment changes the program being measured.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "rabperf"
WORKLOADS = ("memory-bound", "compute-bound", "campaign")

# Each of these changes the program being measured (invariant checking,
# phase profiling, bench thread overrides).
GUARDED_ENV = ("RAB_CHECK_LEVEL", "RAB_CHECK_POLICY", "RAB_PROFILE",
               "RAB_THREADS")

# A run must end within this many seconds of its build finishing.
RUN_LIMIT_S = 175


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def guard_environment():
    for var in GUARDED_ENV:
        if var in os.environ:
            fail(3, f"refusing to run with {var} set: it changes the "
                    "program being measured")


def build():
    """Configure (once) and build the benchmark; a no-op when current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(2, "configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")


def source_digest():
    """SHA-256 over the simulator and benchmark sources (16 hex digits):
    the code identity when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 = each suite workload's "
                             "default")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    guard_environment()
    build()
    # The time limit covers the run, not a first build in a fresh checkout.
    built_at = time.monotonic()

    digest = source_digest()
    sha = git_sha()
    print(f"env source_digest={digest}", flush=True)
    workdir = BUILD_ROOT / f"work-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--git-sha", sha if sha != "unknown" else f"src-{digest}"]
    if args.smoke:
        command.append("--smoke")
    budget = RUN_LIMIT_S - (time.monotonic() - built_at)
    try:
        code = subprocess.run(command, timeout=budget).returncode
    except subprocess.TimeoutExpired:
        fail(1, f"run exceeded {budget:.0f}s and was stopped")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
