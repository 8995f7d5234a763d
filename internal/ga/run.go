package ga

import (
	"pga/internal/core"
	"pga/internal/engine"
)

// RunOptions tunes Run's behaviour.
type RunOptions struct {
	// Stop terminates the run (required).
	Stop core.StopCondition
	// Control is the caller's run control: the cancelling Context, the
	// Trace switch and the Observers of the engine.Loop lifecycle hooks
	// (a per-step callback is engine.Funcs{Generation: f}).
	engine.Control
}

// stepper adapts an Engine to the shared run-loop driver: the engine's
// Step is the whole model-specific part of a panmictic run (this also
// covers cellular engines run standalone and engines evaluating through a
// master–slave farm — both implement Engine).
type stepper struct {
	e Engine
}

// Step implements engine.Stepper.
func (s stepper) Step(int) engine.StepInfo {
	s.e.Step()
	return engine.StepInfo{}
}

// Best implements engine.Stepper.
func (s stepper) Best() (*core.Individual, float64) {
	dir := s.e.Problem().Direction()
	pop := s.e.Population()
	if i := pop.Best(dir); i >= 0 {
		return pop.Members[i], pop.Members[i].Fitness
	}
	return nil, dir.Worst()
}

// Evaluations implements engine.Stepper.
func (s stepper) Evaluations() int64 { return s.e.Evaluations() }

// Direction implements engine.Stepper.
func (s stepper) Direction() core.Direction { return s.e.Problem().Direction() }

// MeanFitness implements engine.MeanReporter.
func (s stepper) MeanFitness() float64 { return s.e.Population().MeanFitness() }

// Run drives engine step by step until the stop condition fires and
// returns the run summary. It is the single sequential "run loop" used by
// baselines and by each island goroutine; the actual loop is engine.Loop.
func Run(e Engine, opts RunOptions) *core.Result {
	if opts.Stop == nil {
		panic("ga: RunOptions.Stop is required")
	}
	res := &core.Result{Problem: e.Problem().Name()}
	ta, _ := e.Problem().(core.TargetAware)
	engine.Loop(stepper{e: e}, engine.Options{
		Stop:              opts.Stop,
		Target:            ta,
		InitialSolve:      true,
		InitialTracePoint: true,
	}.With(opts.Control), &res.RunStats)
	// Fitness memo-cache accounting rides the result, not the Observer
	// seam: a CachedProblem's counters are copied once, after the loop.
	if cr, ok := e.Problem().(core.CacheReporter); ok {
		res.CacheHits, res.CacheMisses = cr.CacheStats()
	}
	return res
}
