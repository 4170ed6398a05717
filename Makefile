.PHONY: all build test lint bench-json bench-diff perfbench perfbench-smoke crash nemesis disk-nemesis soak explore reports clean

all: build

build:
	dune build

test:
	dune runtest

lint:
	dune build @lint

# Deterministic machine-readable metrics snapshot: writes BENCH_<n>.json
# (highest existing index + 1) with fixed field order; CI uploads it as
# an artifact.
bench-json:
	dune exec bench/main.exe

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
# Exits 1 when any invariant violation is found.  Like every harness
# below, it exits 124 on a command-line error.
crash:
	dune exec bin/crashpoints.exe

# Network-fault campaign: scenario x protocol x placement matrix with the
# shared invariant audit (see docs/NEMESIS.md).  Exits 1 on any audit
# violation; output is byte-identical for a given seed.
nemesis:
	dune build bin/nemesis.exe
	dune exec bin/nemesis.exe -- > NEMESIS.md; s=$$?; cat NEMESIS.md; exit $$s

# Disk-fault campaign: torn WAL writes, checkpoint corruption, and
# recovery-time re-crashes across protocol x placement, audited by the
# shared invariant battery (see docs/RECOVERY.md, "Storage faults").
# Exits 1 on any audit violation; byte-identical per seed.
disk-nemesis:
	dune build bin/disk_nemesis.exe
	dune exec bin/disk_nemesis.exe -- > DISK_NEMESIS.md; s=$$?; cat DISK_NEMESIS.md; exit $$s

# Soak: one 2 s window of random MTTF crashes, with checkpoints and
# catch-up, per commit protocol (see bin/soak.ml).  Every protocol runs;
# the target fails if any audit reports a violation.
SOAK_PROTOCOLS = 2pc-prn 2pc-pra 2pc-prc 3pc qc paxos

soak:
	dune build bin/soak.exe
	@s=0; for p in $(SOAK_PROTOCOLS); do \
	  dune exec bin/soak.exe -- --protocol $$p --seed 1 || s=1; \
	done; exit $$s

# Bounded exhaustive schedule exploration with DPOR: the N=3 scenario
# matrix across all six commit protocols, each scenario explored once
# (see docs/EXPLORER.md).  Every non-Paxos scenario closes within its
# budget (Paxos F=1 explores a capped prefix); exits 1 on any audit
# violation; output is byte-identical run to run.  About 1¼ minutes on
# a 2-core machine.
explore:
	dune build bin/explore.exe
	dune exec bin/explore.exe -- > EXPLORE.md; s=$$?; cat EXPLORE.md; exit $$s

# Every report a behaviour-preserving change must leave byte-identical,
# written under OUT: the crash sweep, both nemesis campaigns, the full
# explorer report and one replay, the experiment tables (without their
# host timings), the bench snapshot, the six soak runs, Paxos Commit
# soak seeds 1-10 under both 2PL and `--cc to`, and 2PC-PrN soak seeds
# 1 and 3 under `--cc to --probes --sites 4`, plus each run's exit
# status in exit-status.txt (a failing run is recorded there and does
# not fail the target; soak exits 1 on a failed audit and 124 on a
# command-line error).  Several of the Paxos seeds fail today (ROADMAP,
# "Durable Paxos acceptors"), so a change to Paxos Commit is compared
# on every one of them; both 2PC-PrN seeds fork today (ROADMAP,
# "Correctness residuals"), so their fix shows as a change in exit
# status.  Run it on two checkouts and compare with `diff -r`.  About
# 2½ minutes on a 2-core machine.
reports:
	@test -n "$(OUT)" || { echo "usage: make reports OUT=<dir>"; exit 2; }
	dune build bin/crashpoints.exe bin/nemesis.exe bin/disk_nemesis.exe \
	  bin/explore.exe bin/experiments.exe bin/soak.exe bench/main.exe
	mkdir -p $(OUT)
	rm -f $(OUT)/exit-status.txt $(OUT)/BENCH_*.json
	@run() { name=$$1; shift; "$$@" > $(OUT)/$$name.txt; \
	  echo "$$name $$?" >> $(OUT)/exit-status.txt; }; \
	b=_build/default/bin; \
	run crashpoints $$b/crashpoints.exe; \
	run nemesis $$b/nemesis.exe; \
	run disk-nemesis $$b/disk_nemesis.exe; \
	run explore $$b/explore.exe; \
	run explore-replay $$b/explore.exe --replay QC/crash --schedule 0,0,0,0,1; \
	for p in $(SOAK_PROTOCOLS); do \
	  run soak-$$p $$b/soak.exe --protocol $$p --seed 1; \
	done; \
	for s in 1 2 3 4 5 6 7 8 9 10; do \
	  run soak-paxos-seed$$s $$b/soak.exe --protocol paxos --seed $$s; \
	  run soak-paxos-to-seed$$s $$b/soak.exe --protocol paxos --cc to \
	    --seed $$s; \
	done; \
	for s in 1 3; do \
	  run soak-2pc-prn-to-probes-seed$$s $$b/soak.exe --protocol 2pc-prn \
	    --cc to --probes --sites 4 --seed $$s; \
	done; \
	run experiments $$b/experiments.exe; \
	sed '/^(generated in /d' $(OUT)/experiments.txt > $(OUT)/experiments.tmp; \
	mv $(OUT)/experiments.tmp $(OUT)/experiments.txt; \
	cd $(OUT) && $(CURDIR)/_build/default/bench/main.exe > /dev/null
	@cat $(OUT)/exit-status.txt

clean:
	dune clean
