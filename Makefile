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
# polls their shared context, for the fitness kernels whose one
# instance farm workers and islands share, and for the operators every
# runtime's goroutines call.
race:
	$(GO) test -race ./internal/engine/... ./internal/island/... ./internal/supervise/... \
		./internal/masterslave/... ./internal/cellular/... ./internal/p2p/... \
		./internal/hga/... ./internal/sim/... ./internal/ga/... \
		./internal/transport/... ./internal/spec/... ./internal/problems/... \
		./internal/operators/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Perf gate: hard allocation budgets on the generation hot path (zero
# steady-state allocs for every spec model's generation or epoch, the
# parallel engines and the master–slave farm included, and nothing per
# warm endpoint send or codec call), then one short
# pass of the repo's benchmark on its default-path workload, which
# exits non-zero when the run fails its own correctness gate. Timings
# are compared between commits on one host (perf-compare below), never
# against recorded constants.
perf:
	$(GO) test -run 'AllocBudget' -count=1 ./internal/ga/ ./internal/cellular/ ./internal/island/ ./internal/masterslave/ \
		./internal/hga/ ./internal/sim/ ./internal/p2p/ ./internal/supervise/ ./internal/transport/
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

# Static gate: go vet, whose default run includes copylocks and
# unusedresult. The replay contract's source rules (no math/rand, no wall
# clock in evolution code, buffered channels on the communication paths)
# are tests: TestSourceScan in the root package, run by `make test`.
lint:
	$(GO) vet ./...

# Short local fuzz passes for the property-tested surfaces: the binary
# population decoder and the frame reader around it (no panic, bounded
# allocation, accepted bytes re-encode identically), the decoder's reuse
# form (decoding over a filled batch gives the fresh verdict, error and
# values, and leaves storage a later population decodes into), the packed
# BitString vs its []bool reference model, the run-spec parser
# (structured errors, never panics), its validate-vs-build
# differential (accepted specs build and run, refused ones are refused
# identically by Build) and sweep expansion (typed cells ≡ the JSON
# expansion's, or the same refusal), the bit-sliced MaxSAT and NK kernels vs
# their per-literal and per-gene references, the lane transpose's
# bodies vs its Go body, the ChanceMask lane kernels vs per-lane
# ChanceMask, and Leap.image's bodies vs its generic one.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalPopulation -fuzztime=30s ./internal/persist/
	$(GO) test -fuzz=FuzzDecodePopulationInto -fuzztime=30s ./internal/persist/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/transport/
	$(GO) test -fuzz=FuzzBitStringOps -fuzztime=30s ./internal/genome/
	$(GO) test -fuzz=FuzzMaxSATBatch -fuzztime=30s ./internal/problems/
	$(GO) test -fuzz=FuzzNKBatch -fuzztime=30s ./internal/problems/
	$(GO) test -fuzz=FuzzTransposeBodies -fuzztime=30s ./internal/problems/
	$(GO) test -fuzz=FuzzChanceLanes -fuzztime=30s ./internal/rng/
	$(GO) test -fuzz=FuzzLeapBodies -fuzztime=30s ./internal/rng/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/spec/
	$(GO) test -fuzz=FuzzValidateBuild -fuzztime=30s ./internal/spec/
	$(GO) test -fuzz=FuzzSweepExpansion -fuzztime=30s ./internal/spec/

# Sweep determinism smoke: validate every checked-in sweep config (the
# experiment documents under examples/experiments/ included), then
# require the smoke sweep's result file to be byte-identical on the
# default pool and on one worker, GOMAXPROCS=1 (parallel ≡ serial).
#
# Determinism across commits is tier-1's job: internal/spec's
# TestRecordedResults replays every sweep with a result under
# examples/sweeps/golden/ and requires the recorded bytes, run by
# `go test ./...` and `make race`. The recorded sweeps and what each
# guards: trace-generational, trace-steadystate, trace-parallel,
# trace-cellular and trace-islands (the per-generation trace of every
# engine family — generational, steady-state, shared-memory parallel at
# 1 and 4 workers, cellular under every update policy and
# neighbourhood, islands in sequential and sync-parallel mode — across
# every operator), trace-farm (the master–slave farm at 1, 4 and 8
# workers: the farm's bytes do not depend on its worker count),
# trace-p2p (the gossip overlay with and without churn, solving before
# its generation cap), trace-hga (the hierarchy at mixed and precise-only
# fidelity levels, and a two-layer run that solves before its cost
# budget), trace-supervised (supervised sync-parallel islands recovering
# from scripted deme panics under both resilience presets),
# selectors.json (five selectors under the
# generational, steady-state and shared-memory engines), pareto.json
# (the sim scenarios' Pareto archive at caps 8 and 100), realops.json
# (SBX and polynomial mutation at η on both sides of powFrac's fast
# path, k-point cuts on real genes), kpointbits.json (k-point cuts on
# bit strings) and cellular.json (three cell-update policies and a
# panmictic baseline on a deceptive trap). Each was recorded by the
# parent of the change that added it; never regenerate one to make a
# change pass. CI runs this target as it is.
sweep-smoke:
	@for f in examples/sweeps/*.json examples/experiments/*.json; do \
		$(GO) run ./cmd/pgarun -config $$f -validate || exit 1; \
	done
	$(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-a.json
	GOMAXPROCS=1 $(GO) run ./cmd/pgarun -config examples/sweeps/smoke.json -quiet -out /tmp/sweep-b.json
	cmp /tmp/sweep-a.json /tmp/sweep-b.json
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
