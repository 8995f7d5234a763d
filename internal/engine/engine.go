// Package engine is the shared run-loop layer behind every PGA runtime.
//
// The survey's central observation is that the global, island, cellular,
// hierarchical and p2p models are one family differing only in structure
// and communication. This package is that observation as code: Loop owns
// everything the models used to duplicate — stop-condition polling,
// generation and evaluation accounting, monotone best tracking, solve
// detection, the population mean of every status, elapsed timing and the
// ordered Observer hooks — while each model contributes only a Stepper
// with its model-specific generation step and communication.
//
// Loop draws no random numbers of its own, polls the stop condition
// exactly once per generation (stateful conditions like Stagnation count
// on), and performs no per-generation allocations (the zero-allocation
// gates of the runtimes cover it). The stop condition is always the
// caller's: every runtime ends a run the same way.
//
// Run control — who may watch a run and who may end it early — is said
// once, here: Control is the caller-owned value every runtime's run entry
// takes and hands to Loop through Options.With, and Loop is the only
// place a run's context is polled or its observers are called.
package engine

import (
	"context"
	"slices"
	"time"

	"pga/internal/core"
)

// StepInfo is what a Stepper reports about one call to Step.
type StepInfo struct {
	// Migrations counts migrant batches delivered during the step; when
	// non-zero, Loop fires Observer.OnMigration.
	Migrations int64
	// Restarts counts supervised deme restarts performed during the step;
	// when non-zero, Loop fires Observer.OnRestart.
	Restarts int64
	// Halt ends the run after this step's accounting (a model-specific
	// stop: e.g. a free-running deme that solved its own population, or a
	// supervised deme whose restart budget ran out).
	Halt bool
	// Rewound reports that the step did NOT complete a generation: the
	// model rolled back to generation ResumeAt (a supervised
	// restart-from-checkpoint). Loop resets its generation counter,
	// skips the completed-generation accounting and observers, and
	// resumes stepping from ResumeAt+1.
	Rewound bool
	// ResumeAt is the generation to resume from when Rewound is set.
	ResumeAt int
}

// Stepper is the model-specific part of a runtime: one generation of
// evolution plus communication. Loop owns everything else.
type Stepper interface {
	// Step advances the model by one generation. gen is the 1-based
	// generation about to complete; migration policies are due against it.
	Step(gen int) StepInfo
	// Best returns the current best individual as a live reference into
	// the model (valid only until the next Step) and its fitness. A model
	// that tracks fitness only returns (nil, fitness); with no candidate
	// at all it returns (nil, Direction().Worst()).
	Best() (*core.Individual, float64)
	// Evaluations is the cumulative fitness-evaluation count.
	Evaluations() int64
	// Direction is the fitness direction.
	Direction() core.Direction
}

// MeanReporter is an optional Stepper extension: a model that implements
// it reports its population mean fitness, which Loop puts in every
// core.Status it builds (Status.Mean is 0 for the others).
type MeanReporter interface {
	MeanFitness() float64
}

// Observer receives ordered run-lifecycle hooks from Loop. Per completed
// generation the order is: OnRestart (if the step restarted demes),
// OnMigration (if the step delivered migrants), then OnGeneration; OnDone
// fires once with the final stats. OnGeneration also fires once for the
// initial population as generation 0 — that is the hook supervised runs
// use for their generation-0 checkpoint.
type Observer interface {
	// OnGeneration fires after a generation's accounting (and once for
	// generation 0 before the first step).
	OnGeneration(s core.Status)
	// OnMigration fires after a step that delivered migrant batches.
	OnMigration(gen int, batches int64)
	// OnRestart fires after a step that restarted supervised demes.
	OnRestart(gen int, restarts int64)
	// OnDone fires once when the run ends, after the stats are final.
	OnDone(stats *core.RunStats)
}

// Funcs adapts optional functions to Observer; nil fields are no-ops.
type Funcs struct {
	Generation func(s core.Status)
	Migration  func(gen int, batches int64)
	Restart    func(gen int, restarts int64)
	Done       func(stats *core.RunStats)
}

// OnGeneration implements Observer.
func (f Funcs) OnGeneration(s core.Status) {
	if f.Generation != nil {
		f.Generation(s)
	}
}

// OnMigration implements Observer.
func (f Funcs) OnMigration(gen int, batches int64) {
	if f.Migration != nil {
		f.Migration(gen, batches)
	}
}

// OnRestart implements Observer.
func (f Funcs) OnRestart(gen int, restarts int64) {
	if f.Restart != nil {
		f.Restart(gen, restarts)
	}
}

// OnDone implements Observer.
func (f Funcs) OnDone(stats *core.RunStats) {
	if f.Done != nil {
		f.Done(stats)
	}
}

// Control is the caller-owned half of a run: what the code that started
// the run may say about it, whatever the model. Every run entry (ga.Run,
// island RunSequential/RunParallel, p2p and hga Run, sim.Run, and
// spec.Built.Run above them) takes one and passes it to Loop unchanged;
// the zero value is an unwatched, uncancellable run.
type Control struct {
	// Context, when non-nil, cancels the run from outside: Loop polls it
	// once per generation and a cancelled run ends within one generation
	// with StopReason "cancelled" and the accounting of the generations
	// it completed.
	Context context.Context
	// Observers receive the lifecycle hooks, in slice order, after the
	// runtime's own. A slice shared by concurrent runs (one RunOpts
	// behind a sweep's workers) is only ever read.
	Observers []Observer
}

// Ctx returns the run's context, context.Background() when none was
// given — for the callers that derive a child from it.
func (c Control) Ctx() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// Options tunes Loop. A runtime fills in what it owns and takes the rest
// from its caller through With; the stop condition is always the
// caller's, so every runtime stops the same way (DESIGN §3.1).
type Options struct {
	// Stop terminates the run (required). It is polled exactly once
	// before every generation, generation 0 included, so stateful
	// conditions keep their counters current.
	Stop core.StopCondition
	// Target, when non-nil, enables solve detection against the problem's
	// known optimum (Solved/SolvedAtEval/SolvedAtGen), from the initial
	// population on. It records the solve point only: a run ends at the
	// optimum when Stop says so (core.AtOptimum).
	Target core.TargetAware
	// SkipBest disables best-individual and best-fitness tracking — for
	// per-deme loops whose global best is computed after the demes join.
	SkipBest bool

	// Context and Observers are the run control (see Control, whose
	// fields they mirror: cmd/pgaperf builds Options by keyed literal, and
	// Go cannot key a promoted field). Runtimes set Observers only to
	// their own hooks and take everything else from With.
	Context   context.Context
	Observers []Observer
}

// With returns o under the caller's control: c's context, and c's
// observers after the runtime's own — so a supervised run's generation-0
// checkpoint precedes any user hook — in a fresh slice, never appended to
// either side's.
func (o Options) With(c Control) Options {
	o.Context = c.Context
	if len(c.Observers) > 0 {
		o.Observers = slices.Concat(o.Observers, c.Observers)
	}
	return o
}

// Totals accumulates the StepInfo counters over a run; Loop returns it so
// models can fill their result extensions (e.g. island Migrations).
type Totals struct {
	Migrations int64
	Restarts   int64
}

// Loop drives s until the stop condition fires (or a model halt, see
// StepInfo.Halt, or Options.Context is cancelled)
// and fills out with the run's accounting — the same truthful tail
// whichever way the run ended. The loop itself draws no random numbers and
// allocates only fixed run-level state (the pooled best tracker), never
// per generation.
func Loop(s Stepper, opts Options, out *core.RunStats) Totals {
	if opts.Stop == nil {
		panic("engine: Options.Stop is required")
	}
	start := time.Now()
	dir := s.Direction()
	mean, _ := s.(MeanReporter)
	var totals Totals

	// best tracking: a single pooled tracker individual, cloned once and
	// copied over (not re-cloned) on every improving generation.
	bestFit := dir.Worst()
	var bestInd *core.Individual
	if !opts.SkipBest {
		if ref, f := s.Best(); dir.Better(f, bestFit) {
			bestFit = f
			if ref != nil {
				bestInd = ref.Clone()
			}
		}
	}
	if opts.Target != nil && !out.Solved && opts.Target.Solved(bestFit) {
		out.Solved = true
		out.SolvedAtEval = s.Evaluations()
		out.SolvedAtGen = 0
	}

	status := core.Status{
		Generation:  0,
		Evaluations: s.Evaluations(),
		BestFitness: bestFit,
		Improved:    true,
	}
	if mean != nil {
		status.Mean = mean.MeanFitness()
	}
	for _, o := range opts.Observers {
		o.OnGeneration(status)
	}

	haltReason := ""
	var done <-chan struct{} // nil without a context, or under one that cannot be cancelled
	if opts.Context != nil {
		done = opts.Context.Done()
	}
	for haltReason == "" {
		// The one cancellation poll of a run: before the stop condition,
		// so a cancelled run asks it nothing more.
		if closed(done) {
			haltReason = "cancelled"
			break
		}
		if opts.Stop.Done(status) {
			break
		}
		info := s.Step(status.Generation + 1)
		totals.Migrations += info.Migrations
		totals.Restarts += info.Restarts
		if info.Restarts > 0 {
			for _, o := range opts.Observers {
				o.OnRestart(status.Generation+1, info.Restarts)
			}
		}
		if info.Rewound {
			// The step rolled back to a checkpoint: no generation
			// completed, so no accounting and no OnGeneration.
			status.Generation = info.ResumeAt
			status.Improved = false
			if info.Halt {
				haltReason = "model halt"
			}
			continue
		}
		status.Generation++
		status.Evaluations = s.Evaluations()
		status.Improved = false
		if !opts.SkipBest {
			ref, f := s.Best()
			if dir.Better(f, bestFit) {
				bestFit = f
				status.Improved = true
				if ref != nil {
					if bestInd == nil {
						bestInd = ref.Clone()
					} else {
						bestInd.CopyFrom(ref)
					}
				}
			}
		}
		status.BestFitness = bestFit
		if mean != nil {
			status.Mean = mean.MeanFitness()
		}
		if opts.Target != nil && !out.Solved && opts.Target.Solved(bestFit) {
			out.Solved = true
			out.SolvedAtEval = status.Evaluations
			out.SolvedAtGen = status.Generation
		}
		if info.Migrations > 0 {
			for _, o := range opts.Observers {
				o.OnMigration(status.Generation, info.Migrations)
			}
		}
		for _, o := range opts.Observers {
			o.OnGeneration(status)
		}
		if info.Halt {
			haltReason = "model halt"
		}
	}

	out.Best = bestInd
	out.BestFitness = bestFit
	out.Generations = status.Generation
	out.Evaluations = s.Evaluations()
	out.Elapsed = time.Since(start)
	if haltReason != "" {
		out.StopReason = haltReason
	} else if any, ok := opts.Stop.(core.AnyOf); ok {
		out.StopReason = any.FiredReason(status)
	} else {
		out.StopReason = opts.Stop.Reason()
	}
	for _, o := range opts.Observers {
		o.OnDone(out)
	}
	return totals
}

// closed reports whether done has been closed; a nil channel never is,
// and costs only the nil check.
func closed(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
