package core

// Status is a snapshot of a running evolution, fed to stopping criteria
// after every step.
type Status struct {
	// Generation is the number of completed steps (generations for
	// generational engines, sweeps for cellular, births/popsize for
	// steady-state).
	Generation int
	// Evaluations is the cumulative number of fitness evaluations.
	Evaluations int64
	// BestFitness is the best fitness seen so far in the whole run.
	BestFitness float64
	// Mean is the population's mean fitness after the last step, from a
	// runtime that reports one (engine.MeanReporter); 0 otherwise.
	Mean float64
	// Improved reports whether BestFitness improved during the last step.
	Improved bool
}

// StopCondition decides when a run terminates.
type StopCondition interface {
	// Done reports whether the run should stop given the current status.
	Done(s Status) bool
	// Reason describes the condition for run reports.
	Reason() string
}

// MaxGenerations stops after N completed steps.
type MaxGenerations int

// Done implements StopCondition.
func (m MaxGenerations) Done(s Status) bool { return s.Generation >= int(m) }

// Reason implements StopCondition.
func (m MaxGenerations) Reason() string { return "max generations" }

// MaxEvaluations stops after N fitness evaluations.
type MaxEvaluations int64

// Done implements StopCondition.
func (m MaxEvaluations) Done(s Status) bool { return s.Evaluations >= int64(m) }

// Reason implements StopCondition.
func (m MaxEvaluations) Reason() string { return "max evaluations" }

// ReasonTarget is the stop reason of every run that ends because it
// reached its target: a fitness threshold, the problem's optimum, or a
// free-running deme's solve.
const ReasonTarget = "target fitness reached"

// TargetFitness stops once the best fitness reaches the target under the
// given direction.
type TargetFitness struct {
	Target float64
	Dir    Direction
}

// Done implements StopCondition.
func (t TargetFitness) Done(s Status) bool { return t.Dir.BetterOrEqual(s.BestFitness, t.Target) }

// Reason implements StopCondition.
func (t TargetFitness) Reason() string { return ReasonTarget }

// AtOptimum stops once the best fitness counts as the problem's known
// optimum: TargetAware.Solved, with the problem's own tolerance, which is
// the test a run's solve point is recorded by — so a run that stops here
// stops at the generation it reports solved at.
type AtOptimum struct{ Target TargetAware }

// Done implements StopCondition.
func (a AtOptimum) Done(s Status) bool { return a.Target.Solved(s.BestFitness) }

// Reason implements StopCondition.
func (AtOptimum) Reason() string { return ReasonTarget }

// Stagnation stops after N consecutive steps with no improvement of the
// best fitness. The zero value is invalid; use NewStagnation.
type Stagnation struct {
	limit int
	count int
}

// NewStagnation returns a Stagnation condition triggering after limit
// non-improving steps.
func NewStagnation(limit int) *Stagnation { return &Stagnation{limit: limit} }

// Done implements StopCondition.
func (st *Stagnation) Done(s Status) bool {
	if s.Improved {
		st.count = 0
		return false
	}
	st.count++
	return st.count >= st.limit
}

// Reason implements StopCondition.
func (st *Stagnation) Reason() string { return "stagnation" }

// AnyOf stops when any of its child conditions fires.
type AnyOf []StopCondition

// Done implements StopCondition. All children are polled every step so that
// stateful conditions (Stagnation) keep their counters current.
func (a AnyOf) Done(s Status) bool {
	done := false
	for _, c := range a {
		if c.Done(s) {
			done = true
		}
	}
	return done
}

// Reason implements StopCondition.
func (a AnyOf) Reason() string {
	if len(a) == 0 {
		return "empty condition"
	}
	return "any of composite"
}

// FiredReason returns the Reason of the first child that is satisfied by s,
// for run reports, looking inside nested AnyOfs. It does not advance
// stateful children.
func (a AnyOf) FiredReason(s Status) string {
	for _, c := range a {
		switch c := c.(type) {
		case *Stagnation:
			if c.count >= c.limit {
				return c.Reason()
			}
		case AnyOf:
			if r := c.FiredReason(s); r != "unknown" {
				return r
			}
		default:
			if c.Done(s) {
				return c.Reason()
			}
		}
	}
	return "unknown"
}
