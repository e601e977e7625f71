#!/usr/bin/env python3
"""Recorded-benchmark regression gate for CI (ROADMAP item 2).

Compares a freshly generated benchmark JSON document against the recorded
baseline committed at the repository root (BENCH_online_overload.json and
friends). The gated benchmarks are DETERMINISTIC -- fixed seeds, simulated
time only, medians over seeds -- so every service-level leaf (hit rates,
shed/reject rates, utilization, queueing-delay medians) must reproduce the
recorded value up to a tiny relative tolerance that only absorbs
cross-toolchain floating-point drift. A real behavior change (an admission
regression, a scheduling change that moves the service-level curve) lands
far outside the tolerance and fails the gate; the fix is either to repair
the regression or to consciously re-record the baseline in the same PR
that changes the behavior.

Usage:
    python3 tools/check_bench_regression.py RECORDED.json FRESH.json
    python3 tools/check_bench_regression.py --suite \
        [--manifest tools/bench_baselines.json] \
        [--bench-dir build/bench] [--baseline-dir .]

The two-argument form compares one pre-generated document. The --suite
form reads the manifest (tools/bench_baselines.json), re-runs every
listed bench with its recorded arguments plus `--json` into a temporary
directory, and gates each fresh document against its committed baseline
-- this is what the `bench_regression` ctest and the CI release job run,
so EVERY recorded baseline (speculation, gray failure, online overload,
service storm) is gated, not just the one wired into the workflow by
hand.

Numeric leaves whose key matches GATED_KEY_PATTERN (the curve values, not
configuration echoes) are compared within the tolerance. The work counters
of an embedded metrics snapshot (`metrics.counters`: runs, chunks,
iterations, ...) are integers a fixed seed reproduces, so each one is
compared exactly, and a counter on one side only fails too. Exit status 0
when every gated leaf and counter matches, 1 on any mismatch, a schema
mismatch, or a missing/extra gated leaf or counter. Requires only the
Python standard library.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# Leaves that carry the service-level curve. Other leaves (config echoes,
# schedule counts) are not compared, except the metrics counters below.
GATED_KEY_PATTERN = re.compile(
    r"(hit_rate|shed_rate|reject_rate|utilization|queueing_delay|median|mean)"
)
REL_TOLERANCE = 1e-6
ABS_TOLERANCE = 1e-9


def numeric_leaves(node, path=""):
    """Yields (path, value) for every numeric leaf, depth-first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_leaves(value, f"{path}[{index}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def gated(leaves):
    return {path: value for path, value in leaves if GATED_KEY_PATTERN.search(path)}


def counters(doc):
    """The embedded metrics snapshot's work counters, name -> value."""
    return doc.get("metrics", {}).get("counters", {})


def compare_files(recorded_path: str, fresh_path: str) -> int:
    """The original two-file gate; returns a process exit status."""
    try:
        with open(recorded_path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench_regression: {error}", file=sys.stderr)
        return 1

    if recorded.get("schema") != fresh.get("schema"):
        print(f"check_bench_regression: schema mismatch: recorded "
              f"{recorded.get('schema')!r} vs fresh {fresh.get('schema')!r}",
              file=sys.stderr)
        return 1

    recorded_leaves = gated(numeric_leaves(recorded))
    fresh_leaves = gated(numeric_leaves(fresh))
    if not recorded_leaves:
        print(f"check_bench_regression: no gated leaves in {recorded_path}",
              file=sys.stderr)
        return 1

    failed = False
    for path in sorted(recorded_leaves.keys() | fresh_leaves.keys()):
        if path not in fresh_leaves:
            print(f"  {path}: missing from fresh run", file=sys.stderr)
            failed = True
            continue
        if path not in recorded_leaves:
            print(f"  {path}: not in recorded baseline (re-record?)",
                  file=sys.stderr)
            failed = True
            continue
        want, got = recorded_leaves[path], fresh_leaves[path]
        scale = max(abs(want), abs(got))
        if abs(got - want) > max(ABS_TOLERANCE, REL_TOLERANCE * scale):
            print(f"  {path}: recorded {want!r} vs fresh {got!r}",
                  file=sys.stderr)
            failed = True

    recorded_counters = counters(recorded)
    fresh_counters = counters(fresh)
    for name in sorted(recorded_counters.keys() | fresh_counters.keys()):
        want = recorded_counters.get(name)
        got = fresh_counters.get(name)
        if want != got:
            print(f"  metrics.counters.{name}: recorded {want!r} vs fresh "
                  f"{got!r}", file=sys.stderr)
            failed = True

    if failed:
        print(f"check_bench_regression: {fresh_path} diverges from the "
              f"recorded baseline {recorded_path} -- fix the regression or "
              f"re-record the baseline in the same PR", file=sys.stderr)
        return 1
    print(f"check_bench_regression: {len(recorded_leaves)} gated leaves "
          f"and {len(recorded_counters)} counters match {recorded_path}")
    return 0


def run_suite(manifest_path: str, bench_dir: str, baseline_dir: str) -> int:
    """Re-runs every manifest bench and gates it against its baseline."""
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench_regression: {error}", file=sys.stderr)
        return 1
    if manifest.get("schema") != "cdsf.bench_baselines/1":
        print(f"check_bench_regression: unexpected manifest schema "
              f"{manifest.get('schema')!r} in {manifest_path}", file=sys.stderr)
        return 1
    entries = manifest.get("baselines", [])
    if not entries:
        print(f"check_bench_regression: empty manifest {manifest_path}",
              file=sys.stderr)
        return 1

    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench_regression_") as scratch:
        for entry in entries:
            baseline = os.path.join(baseline_dir, entry["baseline"])
            bench = os.path.join(bench_dir, entry["bench"])
            fresh = os.path.join(scratch, "fresh_" + entry["baseline"])
            command = [bench, *entry.get("args", []), "--json", fresh]
            print(f"check_bench_regression: {' '.join(command)}")
            try:
                completed = subprocess.run(
                    command, stdout=subprocess.DEVNULL, check=False)
            except OSError as error:
                print(f"  {bench}: {error}", file=sys.stderr)
                failures += 1
                continue
            if completed.returncode != 0:
                print(f"  {bench}: exited {completed.returncode}",
                      file=sys.stderr)
                failures += 1
                continue
            if compare_files(baseline, fresh) != 0:
                failures += 1
    if failures:
        print(f"check_bench_regression: {failures} of {len(entries)} "
              f"baseline(s) FAILED the gate", file=sys.stderr)
        return 1
    print(f"check_bench_regression: all {len(entries)} recorded baselines "
          f"reproduced")
    return 0


def main(argv: list) -> int:
    if len(argv) == 3 and not argv[1].startswith("-"):
        return compare_files(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        prog="check_bench_regression.py",
        description="Recorded-benchmark regression gate")
    parser.add_argument("--suite", action="store_true",
                        help="re-run every manifest bench and gate it")
    parser.add_argument("--manifest", default="tools/bench_baselines.json")
    parser.add_argument("--bench-dir", default="build/bench")
    parser.add_argument("--baseline-dir", default=".")
    options = parser.parse_args(argv[1:])
    if not options.suite:
        print(__doc__, file=sys.stderr)
        return 1
    return run_suite(options.manifest, options.bench_dir, options.baseline_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
