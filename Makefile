# Development gates. CI (.github/workflows/ci.yml) runs the same steps;
# `make lint` is the contributor-facing one-liner for the static gate.

GO ?= go

.PHONY: all build test race bench perf perf-compare lint fuzz sweep-smoke experiments-check

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage for every concurrent runtime, for the run loop that
# polls their shared context, and for the fitness kernels whose one
# instance farm workers and islands share.
race:
	$(GO) test -race ./internal/engine/... ./internal/island/... ./internal/supervise/... \
		./internal/masterslave/... ./internal/cellular/... ./internal/p2p/... \
		./internal/hga/... ./internal/sim/... ./internal/ga/... \
		./internal/transport/... ./internal/spec/... ./internal/problems/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Perf gate: hard allocation budgets on the generation hot path (zero
# steady-state allocs for the sequential engines, small fixed budgets
# for parallel/island and the master–slave farm, one buffer per encoded
# migrant batch), then one short pass of the repo's benchmark on its
# default-path workload, which exits non-zero when the run fails its own
# correctness gate. Timings are compared between commits on one host
# (perf-compare below), never against recorded constants.
perf:
	$(GO) test -run 'AllocBudget' -count=1 ./internal/ga/ ./internal/cellular/ ./internal/island/ ./internal/masterslave/ ./internal/transport/
	$(GO) run ./cmd/pgaperf -workload bitwise-gen -seconds 5 -trace 0

# Cross-commit comparison on this host, by the benchmark's own rules
# (cmd/pgaperf/README.md, "Comparing two commits by hand"): BASE is
# exported with `git archive` into a temp dir and each side runs
# `pgaperf -workload W -seed i -seconds 20 -trace 0` for PAIRS seeds,
# alternating which goes first. Prints per-metric wins, medians, the
# base's IQR and a verdict; non-zero exit on a regression beyond a
# BENCHMARK.json bound.  make perf-compare BASE=HEAD~1 WORKLOAD=bitwise-gen
PAIRS ?= 10
perf-compare:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make perf-compare BASE=<rev> WORKLOAD=<name> [PAIRS=10]"; exit 2; }
	$(GO) run ./cmd/perfcompare -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Static gate: pgalint (determinism + concurrency contracts) and vet,
# including explicit copylocks/unusedresult passes. -time reports
# per-rule wall time; the 60s deadline fails the gate if the
# interprocedural engine's cost ever outgrows the module, and the
# per-rule budget catches a single rule going quadratic long before
# that. -baseline is the suppression ratchet: the //pgalint:ignore
# count may not grow past lint-baseline.txt without a reviewed bump.
lint:
	$(GO) run ./cmd/pgalint -time -deadline 60s -rulebudget 20s -baseline lint-baseline.txt ./...
	$(GO) vet ./...
	$(GO) vet -copylocks -unusedresult ./...

# Short local fuzz passes for the property-tested surfaces: the binary
# population decoder and the frame reader around it (no panic, bounded
# allocation, accepted bytes re-encode identically), the packed
# BitString vs its []bool reference model, the run-spec parser
# (structured errors, never panics) and its validate-vs-build
# differential (accepted specs build and run, refused ones are refused
# identically by Build), and the bit-sliced MaxSAT and NK kernels vs
# their per-literal and per-gene references.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalPopulation -fuzztime=30s ./internal/persist/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/transport/
	$(GO) test -fuzz=FuzzBitStringOps -fuzztime=30s ./internal/genome/
	$(GO) test -fuzz=FuzzMaxSATBatch -fuzztime=30s ./internal/problems/
	$(GO) test -fuzz=FuzzNKBatch -fuzztime=30s ./internal/problems/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/spec/
	$(GO) test -fuzz=FuzzValidateBuild -fuzztime=30s ./internal/spec/

# Sweep determinism smoke: validate every checked-in sweep config (the
# experiment documents under examples/experiments/ included), then
# require the smoke sweep's result file to be byte-identical on the
# default pool and on one worker, GOMAXPROCS=1 (parallel ≡ serial), and
# every sweep with a recorded result under examples/sweeps/golden/ to
# reproduce it byte for byte — determinism across commits for what
# internal/equiv's goldens do not reach: selectors.json (five selectors
# under the generational, steady-state and shared-memory engines),
# pareto.json (the sim scenarios' Pareto archive at caps 8 and 100),
# realops.json (SBX and polynomial mutation at η on both sides of
# powFrac's fast path, k-point cuts on real genes) and kpointbits.json
# (k-point cuts on bit strings). Each was recorded by the parent of the
# change it guards; never regenerate one to make a change pass.
sweep-smoke:
	@for f in examples/sweeps/*.json examples/experiments/*.json; do \
		$(GO) run ./cmd/pgarun -config $$f -validate || exit 1; \
	done
	$(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-a.json
	GOMAXPROCS=1 $(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-b.json
	cmp /tmp/sweep-a.json /tmp/sweep-b.json
	@for g in examples/sweeps/golden/*.result.json; do \
		n=$$(basename $$g .result.json); \
		$(GO) run ./cmd/pgarun -config examples/sweeps/$$n.json -quiet -out /tmp/sweep-$$n.json || exit 1; \
		cmp /tmp/sweep-$$n.json $$g || exit 1; \
		echo "sweep-smoke: $$n matches its recorded result"; \
	done
	@echo "sweep-smoke: determinism OK"

# Archive check: the deterministic experiments reproduce their sections
# of experiments_full.txt byte for byte, "[… completed in …]" timing
# lines aside. Three are left out: A04 and E04 migrate asynchronously,
# so their numbers differ from run to run, and E15 has no archived
# section — its hang-vs-heartbeat outcome depends on the wall clock.
EXPERIMENTS_CHECKED = A01 A02 A03 A05 A06 A07 A08 A09 E01 E02 E03 E05 E06 E07 E08 E09 E10 E11 E12 E13 E14
experiments-check:
	$(GO) run ./cmd/pgabench -run $$(echo $(EXPERIMENTS_CHECKED) | tr ' ' ,) > /tmp/experiments-check.txt
	@for id in $(EXPERIMENTS_CHECKED); do \
		awk -v id=$$id: '/^=== /{p=($$2==id)} p' experiments_full.txt | grep -v -e 'completed in' -e '^EXIT=' > /tmp/experiments-want.txt; \
		awk -v id=$$id: '/^=== /{p=($$2==id)} p' /tmp/experiments-check.txt | grep -v 'completed in' > /tmp/experiments-got.txt; \
		test -s /tmp/experiments-want.txt || { echo "experiments-check: $$id has no section in experiments_full.txt"; exit 1; }; \
		diff /tmp/experiments-want.txt /tmp/experiments-got.txt || { echo "experiments-check: $$id differs from experiments_full.txt"; exit 1; }; \
		echo "experiments-check: $$id matches experiments_full.txt"; \
	done
