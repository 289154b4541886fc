#!/usr/bin/env python3
"""Build the benchmark driver from source and run it.

    python3 perfbench/run.py --workload exits --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --pin     # regenerate perfbench/expected.txt

Run from the root of the repository. The driver is built with dune into
.bench_build/ (dune's shared cache off, so nothing is written outside the
checkout); build output goes to stderr. The driver prints one JSON object
as the last line of its standard output. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./" + HERE + "/bench.exe"
EXE = os.path.join(BUILD_DIR, "default", HERE, "bench.exe")
EXPECTED = os.path.join(HERE, "expected.txt")

# No workload's simulated outputs depend on the seed (the seed reaches
# only machine and tenant PRNG seeds, which the measured paths never
# draw from), so each is pinned once, under the seed "*", from the
# default seed after checking that a second seed agrees.
WORKLOADS = ["exits", "bulk-io", "fuzz", "fleet"]
DEFAULT_SEED = 7


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("run.py: cannot run dune: %s" % e, file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def pin_lines(workload, seed):
    out = subprocess.run(
        [EXE, "--pin", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    return out.splitlines()


def pin():
    lines = []
    for workload in WORKLOADS:
        base = pin_lines(workload, DEFAULT_SEED)
        other = pin_lines(workload, DEFAULT_SEED + 1)
        digests = lambda ls: [l.split(" ", 2)[2] for l in ls]
        if digests(base) != digests(other):
            sys.exit("run.py: %s outputs depend on the seed" % workload)
        lines += ["%s * %s" % (workload, l.split(" ", 2)[2]) for l in base]
    with open(EXPECTED, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d lines to %s" % (len(lines), EXPECTED), file=sys.stderr)


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args == ["--pin"]:
        pin()
        return 0
    out_dir = os.path.join(HERE, "out")
    cmd = [EXE, "--expected", EXPECTED, "--out", out_dir] + args
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
