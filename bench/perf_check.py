#!/usr/bin/env python3
"""Gate host-side speed and memory on perfbench's four workloads.

    python3 bench/perf_check.py      # from the root of the repository

`make perf-check` runs it after building. For each workload it runs the
built perfbench executable once (a warm-up pass, then three measured passes,
seed 11; every simulated output is checked against
perfbench/expected.txt) and reads the JSON object on the last line of
its output. It prints one `workload metric value bound ok|FAIL` row per
check and exits 1 if any check fails: a run must be correct with no
failed op, reach its events/s floor and stay under its allocation and
peak-heap ceilings.
"""

import json
import subprocess
import sys

# Each workload's bounds are in METRICS order: an events/s floor, then
# allocation per event and peak heap ceilings. Bounds only tighten. The
# floors are the lowest norm_events_per_s of 12 runs of this script
# (2-core x86-64 container, OCaml 5.1.1) on the run-ahead engine, divided
# by 1.3 and rounded down. Lowest (median) of the 12 runs: exits
# 1,497,495 (1,552,955); bulk-io 893,141 (1,268,550); fuzz 763,839
# (806,360); fleet 19,208 (19,531). bulk-io keeps its earlier floor,
# 1,007,439 / 1.3, which is the higher one (its slowest run here was a
# 0.70x outlier). Allocation per event and peak heap were identical on
# all 12 runs: 501.395 B/ev and 147.330 MB (exits), 766.651 B/ev and
# 48.8400 MB (bulk-io), 1,225.36 B/ev and 3.96425 MB (fuzz), 38,146.87
# B/ev and 157.590 MB (fleet). The allocation ceilings are these times
# 1.05, rounded down, and so is the exits peak heap ceiling times 1.15.
# bulk-io, fuzz and fleet keep their earlier peak heap ceilings (48.73,
# 3.798 and 153.45 MB measured before run-ahead, times 1.15), since 1.15
# times the new figure would loosen them.
METRICS = [("norm_events_per_s", ">="), ("alloc_bytes_per_event", "<="),
           ("peak_heap_mb", "<=")]
BOUNDS = {
    "exits": (1_151_900, 526.46, 169.43),
    "bulk-io": (774_900, 804.98, 56.03),
    "fuzz": (587_500, 1286.63, 4.36),
    "fleet": (14_770, 40054.21, 176.46),
}


def run(workload):
    """The run's result object, or None if it printed none."""
    cmd = ["dune", "exec", "perfbench/bench.exe", "--",
           "--expected", "perfbench/expected.txt", "--out", "_build/perf-check",
           "--workload", workload, "--seconds", "0", "--seed", "11",
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    failures = 0

    def row(workload, metric, value, bound, ok):
        nonlocal failures
        failures += not ok
        print("%-8s %-22s %14s %17s  %s"
              % (workload, metric, value, bound, "ok" if ok else "FAIL"))

    for workload, bounds in BOUNDS.items():
        result = run(workload)
        if result is None:
            row(workload, "result", "none", "a JSON line", False)
            continue
        row(workload, "correct", str(result["correct"]).lower(), "true",
            result["correct"] is True)
        row(workload, "failed", result["failed"], "== 0", result["failed"] == 0)
        for (metric, op), bound in zip(METRICS, bounds):
            value = result["metrics"][metric]["value"]
            ok = value >= bound if op == ">=" else value <= bound
            row(workload, metric, "%.2f" % value, "%s %.2f" % (op, bound), ok)
    if failures:
        print("perf-check: %d check(s) failed" % failures)
        return 1
    print("perf-check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
