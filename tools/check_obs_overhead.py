#!/usr/bin/env python3
"""Flight-recorder overhead gate for CI.

Runs bench_micro_sim twice -- once with the flight recorder disabled
(CDSF_FLIGHT=off) and once with the shipping default (recorder on) -- and
compares the median real_time of the simulate-loop benchmark. The recorder
rides inside the hot simulation loop, so its cost budget is part of the
observability contract (docs/observability.md): the recorder-on median may
not regress more than BUDGET over recorder-off. A NOISE allowance on top
keeps shared CI runners from flaking the gate; a genuine regression shows
up far above budget+noise.

Usage:
    python3 tools/check_obs_overhead.py [path/to/bench_micro_sim]

Exit status 0 when within budget, 1 on a budget violation or a benchmark
that fails to run. Requires only the Python standard library.
"""

import json
import os
import subprocess
import sys
import tempfile

# The benchmark whose inner loop carries the recorder; the name must stay
# in sync with bench/bench_micro_sim.cpp.
BENCH_FILTER = "BM_SimulateLoopApp3"
REPETITIONS = 5
BUDGET = 0.02  # documented recorder-on overhead budget (2%)
NOISE = 0.03   # CI-runner jitter allowance on top of the budget


def run_bench(binary: str, flight_off: bool) -> dict:
    """Runs the benchmark and returns {name: median_real_time_ns}."""
    env = dict(os.environ)
    if flight_off:
        env["CDSF_FLIGHT"] = "off"
    else:
        env.pop("CDSF_FLIGHT", None)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as out:
        out_path = out.name
    try:
        cmd = [
            binary,
            f"--benchmark_filter={BENCH_FILTER}",
            f"--benchmark_repetitions={REPETITIONS}",
            "--benchmark_report_aggregates_only=true",
            "--benchmark_out_format=json",
            f"--benchmark_out={out_path}",
        ]
        subprocess.run(cmd, env=env, check=True)
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    finally:
        os.unlink(out_path)
    medians = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name.endswith("_median"):
            medians[name[: -len("_median")]] = float(bench["real_time"])
    return medians


def main(argv: list) -> int:
    binary = argv[1] if len(argv) > 1 else "build/bench/bench_micro_sim"
    if not os.path.exists(binary):
        print(f"check_obs_overhead: benchmark binary not found: {binary}",
              file=sys.stderr)
        return 1

    print(f"check_obs_overhead: {BENCH_FILTER} x{REPETITIONS} repetitions, "
          f"budget {BUDGET:.0%} + noise allowance {NOISE:.0%}")
    off = run_bench(binary, flight_off=True)
    on = run_bench(binary, flight_off=False)

    failed = False
    for name, base in sorted(off.items()):
        if name not in on:
            print(f"  {name}: missing from recorder-on run", file=sys.stderr)
            failed = True
            continue
        ratio = on[name] / base if base > 0.0 else float("inf")
        overhead = ratio - 1.0
        verdict = "ok" if overhead <= BUDGET + NOISE else "FAIL"
        print(f"  {name}: off={base:.1f}ns on={on[name]:.1f}ns "
              f"overhead={overhead:+.2%} ({verdict})")
        if verdict == "FAIL":
            failed = True
    if not off:
        print(f"check_obs_overhead: no *_median entries matched "
              f"{BENCH_FILTER}", file=sys.stderr)
        failed = True

    if failed:
        print("check_obs_overhead: recorder overhead exceeds the "
              f"{BUDGET:.0%} budget (docs/observability.md)", file=sys.stderr)
        return 1
    print("check_obs_overhead: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
