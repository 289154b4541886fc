.PHONY: build test check fmt-check sweep-smoke profile-smoke perf-check \
	clean

# The default verification bundle: tier-1 tests plus the host-clock
# gates. Every gate on simulated output (trace export, fault injection,
# crash/resume, consolidation scheduler, cluster fleet, fuzzer, OoH and
# ARM Figure 6 tables) is a golden-output diff in test/golden, run by
# `dune runtest`; this Makefile keeps only the gates that read the host
# clock, which tier-1 leaves out.
check: test profile-smoke perf-check

build:
	dune build @all

test: build
	dune runtest

# `dune fmt` needs the ocamlformat binary, which the build container does
# not ship; degrade to a skip (with a note) rather than a hard failure so
# `make fmt-check` is safe to run everywhere.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt && echo "fmt-check: clean"; \
	else \
		echo "fmt-check: skipped (ocamlformat not installed)"; \
	fi

# Tiny end-to-end exercise of the campaign subsystem: a 4-point sweep
# (2 modes x 2 levels) sharded over 2 worker domains, written to a JSONL
# ledger under _build/.
sweep-smoke: build
	rm -f _build/sweep-smoke.jsonl
	dune exec bin/svt_sim.exe -- sweep \
		--axis mode=baseline,hw-svt --axis level=l1,l2 \
		--jobs 2 --ledger _build/sweep-smoke.jsonl
	@echo "sweep-smoke: ledger at _build/sweep-smoke.jsonl"

# End-to-end exercise of the self-profiler: run the fig6 cpuid workload
# with the profiler sink + dispatch observer armed, emit folded stacks,
# and --validate them (non-empty, parseable, and exclusive-time totals
# summing to the measured wall time within 5%) and the profiler's cost
# (armed over unarmed wall time, median of 3 runs each, at most 2.86x);
# exit 1 otherwise.
profile-smoke: build
	dune exec bin/svt_sim.exe -- profile --mode sw-svt --level l2 \
		--out _build/profile-smoke.folded --validate
	@echo "profile-smoke: folded stacks at _build/profile-smoke.folded"

# Host-speed and memory gate: run perfbench's four workloads (exits,
# bulk-io, fuzz, fleet) from the _build binary and check each result's
# correctness, normalised events/s floor and allocation and peak-heap
# ceilings against the bounds in bench/perf_check.py.
perf-check: build
	python3 bench/perf_check.py

clean:
	dune clean
