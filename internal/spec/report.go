package spec

import (
	"slices"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/hga"
	"pga/internal/island"
	"pga/internal/masterslave"
	"pga/internal/p2p"
	"pga/internal/sim"
)

// Built is a validated spec materialised into a runtime. Exactly one of
// the runtime handles is non-nil (Engine covers the five panmictic
// models); Run drives whichever the model owns and renders a
// deterministic Report. The handles stay exported so callers with
// special needs (the equiv parity tests, experiments stepping engines by
// hand) can drive the runtime directly.
type Built struct {
	// Spec is the spec that was built (after validation).
	Spec RunSpec
	// Problem is the materialised problem (nil for model "sim", whose
	// problem is multi-objective).
	Problem core.Problem
	// Stop is the composed stop condition of the engine models; fresh
	// per Build because stagnation conditions are stateful.
	Stop core.StopCondition
	// Engine is the panmictic runtime (generational, steadystate,
	// parallel, masterslave, cellular).
	Engine ga.Engine
	// Farm is the evaluation farm behind a masterslave Engine.
	Farm *masterslave.Farm
	// Islands is the island runtime.
	Islands *island.Model
	// P2P is the gossip-overlay runtime.
	P2P *p2p.Network
	// HGA is the hierarchical runtime.
	HGA *hga.Model
	// SIMConfig is the sim runtime's config (sim.Run constructs and
	// runs in one call).
	SIMConfig *sim.Config

	plan *Plan
}

// RunOpts is the caller's control over Built.Run and Sweep.Run. All nine
// model names honour all of it, through the one engine.Loop they share:
//
//   - Context cancels the run from outside: it ends within one generation
//     with stop reason "cancelled" and a truthful partial Report. A
//     cancelled sweep claims no further cell (see Sweep.Run).
//   - Trace records the per-generation trace into the report (the mean is
//     0 for p2p, hga and sim, whose runtimes report no run-level mean).
//   - Observers receive the engine.Loop lifecycle hooks after the
//     runtime's own: OnGeneration once for the initial population and once
//     per completed generation, OnMigration/OnRestart when a step
//     delivered or restarted, OnDone once with the final stats.
//
// One discipline delivers less: free-running islands (mode "parallel"
// with async migration) are n per-deme loops with no run-level generation,
// so there the observers hear OnDone only and Trace records nothing, until
// ROADMAP item 1B's deme-tagged events; cancellation stops every deme.
//
// Sweep.Run shares one RunOpts between its workers: the observers and
// OnStep of a sweep are called from several goroutines, for several cells
// at once, and must be safe for that. The Observers slice is never written.
type RunOpts struct {
	engine.Control
	// OnStep fires after every completed generation (live progress
	// displays): shorthand for an observer
	// engine.Funcs{Generation: OnStep} that skips generation 0.
	OnStep func(core.Status)
}

// control is the engine.Control opts means: its own, with OnStep folded
// in as one more observer (in a fresh slice).
func (opts RunOpts) control() engine.Control {
	ctl := opts.Control
	if onStep := opts.OnStep; onStep != nil {
		step := engine.Funcs{Generation: func(s core.Status) {
			if s.Generation > 0 {
				onStep(s)
			}
		}}
		ctl.Observers = slices.Concat(ctl.Observers, []engine.Observer{step})
	}
	return ctl
}

// Report is the deterministic run summary: everything a sweep result
// file carries per cell. It deliberately has no timing fields — wall
// clock is the one quantity that breaks run-twice byte-identity, so
// callers that want timings measure around Run themselves.
type Report struct {
	// Name, Model, Problem, Seed echo the spec.
	Name    string `json:"name,omitempty"`
	Model   string `json:"model"`
	Problem string `json:"problem"`
	Seed    uint64 `json:"seed"`
	// Cell and Replicate locate a sweep cell; Overrides is the cell's
	// axis assignment (single runs leave all three zero).
	Cell      int            `json:"cell,omitempty"`
	Replicate int            `json:"replicate,omitempty"`
	Overrides map[string]any `json:"overrides,omitempty"`

	// Core accounting (core.RunStats minus Elapsed).
	Best         float64           `json:"best"`
	Generations  int               `json:"generations"`
	Evaluations  int64             `json:"evaluations"`
	Solved       bool              `json:"solved,omitempty"`
	SolvedAtEval int64             `json:"solved_at_eval,omitempty"`
	SolvedAtGen  int               `json:"solved_at_gen,omitempty"`
	StopReason   string            `json:"stop,omitempty"`
	CacheHits    int64             `json:"cache_hits,omitempty"`
	CacheMisses  int64             `json:"cache_misses,omitempty"`
	Trace        []core.TracePoint `json:"trace,omitempty"`

	// Model extensions.
	Migrations  int64   `json:"migrations,omitempty"`   // islands
	Restarts    int64   `json:"restarts,omitempty"`     // supervised islands
	DeadDemes   []int   `json:"dead_demes,omitempty"`   // supervised islands
	Departures  int     `json:"departures,omitempty"`   // p2p
	Joins       int     `json:"joins,omitempty"`        // p2p
	AliveAtEnd  int     `json:"alive_at_end,omitempty"` // p2p
	Cost        float64 `json:"cost,omitempty"`         // hga
	CostAtSolve float64 `json:"cost_at_solve,omitempty"`
	Hypervolume float64 `json:"hypervolume,omitempty"` // sim
	ParetoSize  int     `json:"pareto_size,omitempty"` // sim
	Islands     int     `json:"islands,omitempty"`     // sim
}

// Run drives the built runtime to completion and renders the report.
// Sequential-mode and sync-parallel runs are deterministic: the same
// spec yields a byte-identical report JSON on every run.
func (b *Built) Run(opts RunOpts) *Report {
	rep := &Report{
		Name:    b.Spec.Name,
		Model:   b.Spec.Model,
		Problem: b.Spec.Problem.Name,
		Seed:    b.Spec.Seed,
	}
	b.plan.model.run(b, opts.control(), rep)
	return rep
}

// fill copies the shared accounting, excluding Elapsed (the trace is
// there only when the run was asked to record one).
func (r *Report) fill(st *core.RunStats) {
	r.Best = st.BestFitness
	r.Generations = st.Generations
	r.Evaluations = st.Evaluations
	r.Solved = st.Solved
	r.SolvedAtEval = st.SolvedAtEval
	r.SolvedAtGen = st.SolvedAtGen
	r.StopReason = st.StopReason
	r.Trace = st.Trace
}
