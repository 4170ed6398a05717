.PHONY: all build test lint bench bench-json bench-diff perfbench perfbench-smoke crash nemesis disk-nemesis soak explore clean

all: build

build:
	dune build

test:
	dune runtest

lint:
	dune build @lint

bench:
	dune exec bench/main.exe

# Deterministic machine-readable metrics snapshot: writes BENCH_<n>.json
# (highest existing index + 1) with fixed field order; CI uploads it as
# an artifact.
bench-json:
	dune exec bench/main.exe -- --json

# Perf gate: regenerate the snapshot and diff it against the highest
# committed BENCH_<n>.json.  Virtual time is deterministic, so it fails
# on any difference and prints the differing probe lines; a change that
# moves a probe commits the new snapshot.
bench-diff: bench-json
	dune exec tools/bench_diff.exe

# The benchmark declared in BENCHMARK.json: every workload on both
# clocks (see perfbench/README.md).  About a minute on a 2-core
# machine; the smoke run takes seconds and adds the per-layer metrics.
perfbench:
	bash perfbench/run.sh

perfbench-smoke:
	bash perfbench/run.sh --smoke --trace 1

# Exhaustive crash-recovery fault injection (see docs/RECOVERY.md).
# Exits non-zero when any invariant violation is found.
crash:
	dune exec bin/crashpoints.exe

# Network-fault campaign: scenario x protocol x placement matrix with the
# shared invariant audit (see docs/NEMESIS.md).  Exit code = number of
# audit violations; output is byte-identical for a given seed.
nemesis:
	dune build bin/nemesis.exe
	dune exec bin/nemesis.exe -- > NEMESIS.md; s=$$?; cat NEMESIS.md; exit $$s

# Disk-fault campaign: torn WAL writes, checkpoint corruption, and
# recovery-time re-crashes across protocol x placement, audited by the
# shared invariant battery (see docs/RECOVERY.md, "Storage faults").
# Exit code = number of audit violations; byte-identical per seed.
disk-nemesis:
	dune build bin/disk_nemesis.exe
	dune exec bin/disk_nemesis.exe -- > DISK_NEMESIS.md; s=$$?; cat DISK_NEMESIS.md; exit $$s

# Soak: one 2 s window of random MTTF crashes, with checkpoints and
# catch-up, per commit protocol (see bin/soak.ml).  Every protocol runs;
# the target fails if any audit reports a violation.
soak:
	dune build bin/soak.exe
	@s=0; for p in 2pc-prn 2pc-pra 2pc-prc 3pc qc paxos; do \
	  dune exec bin/soak.exe -- --protocol $$p --seed 1 || s=1; \
	done; exit $$s

# Bounded exhaustive schedule exploration with DPOR: the N=3 scenario
# matrix across all six commit protocols (see docs/EXPLORER.md).  Every
# non-Paxos scenario closes within its budget (Paxos F=1 explores a
# capped prefix); exit code = number of audit violations; output is
# byte-identical run to run.
explore:
	dune build bin/explore.exe
	dune exec bin/explore.exe -- > EXPLORE.md; s=$$?; cat EXPLORE.md; exit $$s

clean:
	dune clean
