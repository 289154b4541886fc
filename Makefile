.PHONY: build test check fmt-check sweep-smoke profile-smoke bench-obs \
	perf-check clean

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
# summing to the measured wall time within 5%; exit 1 otherwise).
profile-smoke: build
	dune exec bin/svt_sim.exe -- profile --mode sw-svt --level l2 \
		--out _build/profile-smoke.folded --validate
	@echo "profile-smoke: folded stacks at _build/profile-smoke.folded"

# Self-profiling trajectory: BENCH_obs.json records events/sec on the
# fig6 and consolidation workloads plus the armed-profiler overhead
# ratio and allocated bytes per event.
bench-obs: build
	dune exec bench/main.exe -- profile

# Gate BENCH_obs.json against the checked-in envelope: fail on a >30%
# regression (throughput floors, overhead/allocation ceilings).
# Regenerates BENCH_obs.json first so the gate always judges this tree.
perf-check: build
	dune exec bench/main.exe -- profile perf-check quick

clean:
	dune clean
