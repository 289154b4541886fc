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
# allocation per event and peak heap ceilings. The floors are the lowest
# norm_events_per_s of 12 runs of this script (2-core x86-64 container,
# OCaml 5.1.1), divided by 1.3 and rounded down. Lowest of the 12 runs:
# exits 1,198,233; bulk-io 1,007,439; fuzz 702,980; fleet 17,314.
# Allocation per event and peak heap were identical on all 12 runs, so
# their ceilings are the measured value times 1.05 and 1.15, rounded
# down: 721.598 B/ev and 149.116 MB (exits), 982.487 B/ev and 48.7286 MB
# (bulk-io), 1,488.93 B/ev and 3.79769 MB (fuzz), 41,646.57 B/ev and
# 153.45 MB (fleet).
METRICS = [("norm_events_per_s", ">="), ("alloc_bytes_per_event", "<="),
           ("peak_heap_mb", "<=")]
BOUNDS = {
    "exits": (921_700, 757.67, 171.48),
    "bulk-io": (774_900, 1031.61, 56.03),
    "fuzz": (540_700, 1563.37, 4.36),
    "fleet": (13_310, 43728.89, 176.46),
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
