// Package exp implements the experiment harness: one runner per
// experiment in DESIGN.md's index (E1–E14 plus the A-series ablations),
// each regenerating the table/curve shape of a claim reviewed by the
// survey. Fifteen are sweep documents under examples/experiments, run by
// Sweep.Run and printed by one reducer each (sweeps.go); the rest step
// spec-built runtimes by hand, read the wall clock, script their own
// faults, or run no GA at all (DESIGN.md §4). cmd/pgabench drives the
// whole suite; bench_test.go exposes one testing.B benchmark per
// experiment.
package exp

import (
	"fmt"
	"io"
	"sort"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/rng"
	"pga/internal/spec"
	"pga/internal/stats"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the DESIGN.md identifier, e.g. "E2".
	ID string
	// Title is a one-line description.
	Title string
	// Source cites the surveyed claim being reproduced.
	Source string
	// Run executes the experiment and writes its table to w. quick
	// selects reduced sizes (for benchmarks and smoke tests).
	Run func(w io.Writer, quick bool)
}

// registry holds all experiments in presentation order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared run helpers ----

// demeEngine returns an engine factory for an already-materialised
// problem instance — the same canonical deme engine as demeEngineSpec,
// for E15, which wires its supervised island config by hand.
func demeEngine(p core.Problem, popSize int) func(int, *rng.Source) ga.Engine {
	return func(deme int, r *rng.Source) ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem:   p,
			PopSize:   popSize,
			Selector:  operators.Tournament{K: 2},
			Crossover: operators.TwoPoint{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}
}

// demeEngineSpec is the canonical deme engine of the island experiments
// (generational, tournament-2, two-point crossover, bit-flip mutation)
// in spec vocabulary.
func demeEngineSpec(popSize int) spec.EngineSpec {
	return spec.EngineSpec{
		Pop:       popSize,
		Selector:  &spec.OperatorSpec{Name: "tournament", Params: map[string]float64{"k": 2}},
		Crossover: &spec.OperatorSpec{Name: "twopoint"},
		Mutator:   &spec.OperatorSpec{Name: "bitflip"},
	}
}

// mustBuild materialises a spec assembled by experiment code; the
// setups are static tables, so a validation failure is a programming
// error, not an input error.
func mustBuild(rs spec.RunSpec) *spec.Built {
	b, err := spec.Build(rs)
	if err != nil {
		panic(err)
	}
	return b
}

// fprintf is fmt.Fprintf with the error discarded (experiment output is
// best-effort console text).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}

// scale returns full unless quick, then reduced.
func scale(quick bool, full, reduced int) int {
	if quick {
		return reduced
	}
	return full
}

// migrationEvery returns the canonical best→worst policy with the given
// interval and migrant count.
func migrationEvery(interval, count int) spec.MigrationSpec {
	return spec.MigrationSpec{Interval: interval, Count: count}
}

// rate formats a hit-rate as "17/20".
func rate(h *stats.HitRate) string {
	return fmt.Sprintf("%d/%d", h.Hits(), h.Runs())
}

// medianEffort is the median evaluations of the solved runs, 0 if none.
func medianEffort(h *stats.HitRate) float64 {
	if h.Hits() == 0 {
		return 0
	}
	return h.Effort().Median
}
