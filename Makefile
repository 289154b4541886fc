.PHONY: build test check fmt-check sweep-smoke trace-smoke fault-smoke \
	resume-smoke sched-smoke cluster-smoke fuzz-smoke ooh-smoke \
	arm-smoke profile-smoke bench-engine bench-obs perf-check clean

# The default verification bundle: tier-1 tests plus the end-to-end
# trace-export, fault-injection, crash/resume, consolidation-scheduler,
# cluster-fleet, fuzzing, OoH-delegation, ARM-backend and self-profiling
# smoke runs, and the perf envelope gate.
check: test trace-smoke fault-smoke resume-smoke sched-smoke cluster-smoke \
	fuzz-smoke ooh-smoke arm-smoke profile-smoke perf-check

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

# End-to-end exercise of the observability layer: run a small nested
# workload with the trace sinks installed, export a Chrome trace, and
# re-parse it requiring >=1 span of each expected kind (--validate
# exits non-zero otherwise).
trace-smoke: build
	dune exec bin/svt_sim.exe -- trace \
		--mode baseline --level l2 --out _build/trace-smoke.json --validate
	@echo "trace-smoke: trace at _build/trace-smoke.json"

# Determinism gate for the fault injector: the same seed and plan must
# produce byte-identical ledger rows (the faults subcommand pins wall_s
# for exactly this reason). A diff here means an injection point consumed
# PRNG state or virtual time it should not have.
FAULT_PLAN = drop-ring:0.05,corrupt-vmcs12:0.02,stall-blocked:0.1
fault-smoke: build
	rm -f _build/fault-smoke-a.jsonl _build/fault-smoke-b.jsonl
	dune exec bin/svt_sim.exe -- faults --mode sw-svt --workload rr \
		--seed 7 --plan $(FAULT_PLAN) --out _build/fault-smoke-a.jsonl
	dune exec bin/svt_sim.exe -- faults --mode sw-svt --workload rr \
		--seed 7 --plan $(FAULT_PLAN) --out _build/fault-smoke-b.jsonl
	cmp _build/fault-smoke-a.jsonl _build/fault-smoke-b.jsonl
	@echo "fault-smoke: ledgers byte-identical"

# Crash-safety gate for the journaled ledger. One 9-point sweep runs
# uninterrupted; a second is killed after 3 rows (--max-rows, exit 3),
# then resumed. The resumed ledger must be byte-identical to the
# uninterrupted one (--deterministic pins wall_s, the only wall-clock
# field). The axes deliberately include the hung `spin` workload, which
# only the simulator fuel budget (--max-sim-events) can terminate: it
# must land in both ledgers as a bounded `timeout` row, which also makes
# exit status 1 the *success* criterion for the full sweeps.
RESUME_AXES = --axis mode=baseline,hw-svt,sw-svt \
	--axis workload=cpuid,rr,spin --deterministic \
	--max-sim-events 200000 --quiet
resume-smoke: build
	rm -f _build/resume-full.jsonl _build/resume-cut.jsonl
	dune exec bin/svt_sim.exe -- sweep $(RESUME_AXES) \
		--jobs 2 --ledger _build/resume-full.jsonl; \
		test $$? -eq 1
	dune exec bin/svt_sim.exe -- sweep $(RESUME_AXES) \
		--jobs 2 --max-rows 3 --ledger _build/resume-cut.jsonl; \
		test $$? -eq 3
	dune exec bin/svt_sim.exe -- sweep $(RESUME_AXES) \
		--jobs 2 --resume --ledger _build/resume-cut.jsonl; \
		test $$? -eq 1
	cmp _build/resume-full.jsonl _build/resume-cut.jsonl
	@echo "resume-smoke: interrupted+resumed ledger byte-identical"

# Determinism gate for the multi-tenant host scheduler (lib/sched): the
# same consolidation sweep run with 1 and 2 worker domains must produce
# byte-identical ledgers — virtual-time scheduling, SVt-thread placement
# and debt charging may not depend on wall clock or worker interleaving.
SCHED_AXES = --axis workload=consolidate \
	--axis mode=baseline,sw-svt \
	--axis policy=dedicated-sibling,on-demand-donation,shared-pool:2 \
	--axis tenants=2,6 --axis cores=4 --deterministic
sched-smoke: build
	rm -f _build/sched-j1.jsonl _build/sched-j2.jsonl
	dune exec bin/svt_sim.exe -- sweep $(SCHED_AXES) \
		--jobs 1 --ledger _build/sched-j1.jsonl
	dune exec bin/svt_sim.exe -- sweep $(SCHED_AXES) \
		--jobs 2 --ledger _build/sched-j2.jsonl
	cmp _build/sched-j1.jsonl _build/sched-j2.jsonl
	@echo "sched-smoke: consolidation ledger byte-identical across jobs=1/2"

# Determinism + fault-tolerance gate for the cluster layer (lib/cluster).
# Three parts: (1) a fixed-seed host-crash fleet run must reproduce the
# checked-in report table byte-for-byte — every evacuated tenant visibly
# re-placed or typed-rejected; (2) a cluster-workload sweep must be
# byte-identical across jobs=1/jobs=2; (3) the same sweep killed after 2
# rows (--max-rows, exit 3) and resumed must match the uninterrupted
# ledger. A diff anywhere means fleet state leaked into a PRNG stream,
# the placement scan, or the fault rolls.
CLUSTER_ARGS = --hosts 4 --tenants 10 \
	--fault host-crash:0.02,host-degrade:0.01 --seed 42
CLUSTER_AXES = --axis workload=cluster --axis mode=baseline,sw-svt \
	--axis hosts=2 --axis tenants=4 --axis fault=host-crash:0.05 \
	--axis seed=0,1 --deterministic --quiet
cluster-smoke: build
	rm -f _build/cluster-smoke.txt _build/cluster-j1.jsonl \
		_build/cluster-j2.jsonl _build/cluster-cut.jsonl
	dune exec bin/svt_sim.exe -- cluster $(CLUSTER_ARGS) \
		--out _build/cluster-smoke.txt > /dev/null
	cmp test/expected/cluster-smoke.expected _build/cluster-smoke.txt
	dune exec bin/svt_sim.exe -- sweep $(CLUSTER_AXES) \
		--jobs 1 --ledger _build/cluster-j1.jsonl
	dune exec bin/svt_sim.exe -- sweep $(CLUSTER_AXES) \
		--jobs 2 --ledger _build/cluster-j2.jsonl
	cmp _build/cluster-j1.jsonl _build/cluster-j2.jsonl
	dune exec bin/svt_sim.exe -- sweep $(CLUSTER_AXES) \
		--jobs 2 --max-rows 2 --ledger _build/cluster-cut.jsonl; \
		test $$? -eq 3
	dune exec bin/svt_sim.exe -- sweep $(CLUSTER_AXES) \
		--jobs 2 --resume --ledger _build/cluster-cut.jsonl
	cmp _build/cluster-j1.jsonl _build/cluster-cut.jsonl
	@echo "cluster-smoke: report matches expected; ledgers byte-identical across jobs=1/2 and interrupt+resume"

# Determinism + soundness gate for the coverage-guided fuzzer (lib/fuzz):
# the same fixed-seed batch run with 1 and 2 worker domains must produce
# byte-identical corpus ledgers, keep a nonzero number of new-coverage
# inputs, and report zero invariant violations (this seed/batch is
# verified clean; a violation appearing here means a regression in the
# stack, the harness, or determinism).
FUZZ_ARGS = --seed 7 --batch 24 --quiet
fuzz-smoke: build
	rm -f _build/fuzz-j1.jsonl _build/fuzz-j2.jsonl
	dune exec bin/svt_sim.exe -- fuzz $(FUZZ_ARGS) \
		--jobs 1 --ledger _build/fuzz-j1.jsonl | tee _build/fuzz-smoke.out
	dune exec bin/svt_sim.exe -- fuzz $(FUZZ_ARGS) \
		--jobs 2 --ledger _build/fuzz-j2.jsonl
	cmp _build/fuzz-j1.jsonl _build/fuzz-j2.jsonl
	grep -q "violations=0" _build/fuzz-smoke.out
	grep -q "kept=" _build/fuzz-smoke.out && ! grep -q "kept=0 " _build/fuzz-smoke.out
	@echo "fuzz-smoke: corpus ledger byte-identical across jobs=1/2, no violations"

# Determinism + calibration gate for the Out-of-Hypervisor delegation
# mode: the full x86 Figure 6 strategy table (baseline levels, SW/HW SVt,
# ooh and the full-nesting upper bound, plus the per-exit latency table)
# must be byte-identical across two runs AND match the checked-in
# expected file, and the ooh row must actually be present.
ooh-smoke: build
	rm -f _build/ooh-fig6-a.txt _build/ooh-fig6-b.txt
	dune exec bin/svt_sim.exe -- fig6 --out _build/ooh-fig6-a.txt
	dune exec bin/svt_sim.exe -- fig6 --out _build/ooh-fig6-b.txt
	cmp _build/ooh-fig6-a.txt _build/ooh-fig6-b.txt
	cmp test/expected/fig6.expected _build/ooh-fig6-a.txt
	grep -q "^OoH" _build/ooh-fig6-a.txt
	@echo "ooh-smoke: fig6 table byte-identical and matches expected, OoH column present"

# Determinism + calibration gate for the ARM NV/VHE backend: the ARM
# fig6 table (with its per-exit latency profile) must be byte-identical
# across two runs AND match the checked-in expected file — pinning the
# cross-ISA claim (costlier baseline nested exits, larger SVt speedup)
# byte-for-byte. HW SVt must be absent (no shadow VMCS on ARM), SW SVt
# present.
arm-smoke: build
	rm -f _build/arm-fig6-a.txt _build/arm-fig6-b.txt
	dune exec bin/svt_sim.exe -- fig6 --arch arm --out _build/arm-fig6-a.txt
	dune exec bin/svt_sim.exe -- fig6 --arch arm --out _build/arm-fig6-b.txt
	cmp _build/arm-fig6-a.txt _build/arm-fig6-b.txt
	cmp test/expected/arm-fig6.expected _build/arm-fig6-a.txt
	grep -q "^SW SVt" _build/arm-fig6-a.txt
	! grep -q "^HW SVt" _build/arm-fig6-a.txt
	@echo "arm-smoke: ARM fig6 + per-exit table byte-identical and matches expected"

# End-to-end exercise of the self-profiler: run the fig6 cpuid workload
# with the profiler sink + dispatch observer armed, emit folded stacks,
# and --validate them (non-empty, parseable, and exclusive-time totals
# summing to the measured wall time within 5%; exit 1 otherwise).
profile-smoke: build
	dune exec bin/svt_sim.exe -- profile --mode sw-svt --level l2 \
		--out _build/profile-smoke.folded --validate
	@echo "profile-smoke: folded stacks at _build/profile-smoke.folded"

# Engine/fuzz-harness throughput baseline: BENCH_engine.json records
# events/sec and execs/sec on a fixed-seed batch so the perf trajectory
# is visible across PRs (ROADMAP item 1).
bench-engine: build
	dune exec bench/main.exe -- engine

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
