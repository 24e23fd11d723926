#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny budget.

Usage (from the repository root):

    python3 perfbench/smoke.py

Checks, in about a minute:
  * the traced tick loop reproduces Simulation::run()'s stat payload
    exactly on a runahead, a buffer-cc and a cre point (rabperf
    --selfcheck);
  * every workload in BENCHMARK.json runs with --trace 0 and --trace 1,
    reports correct outputs, and prints exactly the end-to-end or the
    per-layer metrics BENCHMARK.json names, each with its unit;
  * the environment guard refuses to run, without printing a result.
Exits 0 when all of this holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (perfbench/run.py: build + paths)

ROOT = bench.ROOT
RUN = [sys.executable, str(bench.BENCH_DIR / "run.py")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, env=None):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=ROOT, env=env)


def check_result(workload, trace, expected, problems):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        problems.append(f"{where}: last line is not JSON: {lines[-1]}")
        return
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"{where}: incorrect run\n{proc.stdout}")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    unexpected = sorted(set(metrics) - set(expected))
    if missing or unexpected:
        problems.append(f"{where}: missing {missing}, unexpected {unexpected}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit \
                or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"{where}: metric {name} = {m}, unit should "
                            f"be {unit}")
    print(f"smoke: {where}: {len(metrics)} metrics, "
          f"{result['attempted']} point runs")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    guarded = dict(os.environ, RAB_PROFILE="1")
    proc = run(["--workload", spec["workloads"][0]["name"], "--smoke"],
               env=guarded)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("environment guard did not refuse RAB_PROFILE=1")

    bench.build()
    selfcheck = subprocess.run([str(bench.BINARY), "--selfcheck"],
                               capture_output=True, text=True)
    sys.stdout.write(selfcheck.stdout)
    if selfcheck.returncode != 0:
        problems.append("selfcheck failed:\n" + selfcheck.stdout
                        + selfcheck.stderr)

    for workload in spec["workloads"]:
        check_result(workload["name"], 0, end_to_end, problems)
        check_result(workload["name"], 1, per_layer, problems)

    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else
          f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
