package core

import (
	"fmt"
	"math"
	"testing"

	"pga/internal/rng"
)

// testGenome is a one-gene integer genome for exercising core types.
type testGenome struct{ v int }

func (g *testGenome) Clone() Genome       { c := *g; return &c }
func (g *testGenome) CopyFrom(src Genome) { *g = *src.(*testGenome) }
func (g *testGenome) Len() int            { return 1 }
func (g *testGenome) String() string      { return fmt.Sprintf("tg(%d)", g.v) }

// testProblem maximises the gene value; optimum is 100.
type testProblem struct{}

func (testProblem) Name() string         { return "test" }
func (testProblem) Direction() Direction { return Maximize }
func (testProblem) NewGenome(r *rng.Source) Genome {
	return &testGenome{v: r.Intn(101)}
}
func (testProblem) Evaluate(g Genome) float64 { return float64(g.(*testGenome).v) }
func (testProblem) Optimum() float64          { return 100 }
func (testProblem) Solved(f float64) bool     { return f >= 100 }

func TestDirectionBetter(t *testing.T) {
	if !Maximize.Better(2, 1) || Maximize.Better(1, 2) || Maximize.Better(1, 1) {
		t.Fatal("Maximize.Better wrong")
	}
	if !Minimize.Better(1, 2) || Minimize.Better(2, 1) || Minimize.Better(1, 1) {
		t.Fatal("Minimize.Better wrong")
	}
	if !Maximize.BetterOrEqual(1, 1) || !Minimize.BetterOrEqual(1, 1) {
		t.Fatal("BetterOrEqual should accept ties")
	}
}

func TestDirectionWorst(t *testing.T) {
	if !math.IsInf(Maximize.Worst(), -1) {
		t.Fatal("Maximize.Worst should be -Inf")
	}
	if !math.IsInf(Minimize.Worst(), 1) {
		t.Fatal("Minimize.Worst should be +Inf")
	}
}

func TestDirectionString(t *testing.T) {
	if Maximize.String() != "maximize" || Minimize.String() != "minimize" {
		t.Fatal("Direction.String wrong")
	}
}

func TestIndividualClone(t *testing.T) {
	ind := NewIndividual(&testGenome{v: 5})
	ind.Fitness = 5
	ind.Evaluated = true
	c := ind.Clone()
	c.Genome.(*testGenome).v = 9
	if ind.Genome.(*testGenome).v != 5 {
		t.Fatal("Clone aliases genome")
	}
	if !c.Evaluated || c.Fitness != 5 {
		t.Fatal("Clone lost fitness state")
	}
}

func TestIndividualString(t *testing.T) {
	ind := NewIndividual(&testGenome{v: 3})
	if s := ind.String(); s != "{tg(3) fit=?}" {
		t.Fatalf("unevaluated String = %q", s)
	}
	ind.Fitness, ind.Evaluated = 3, true
	if s := ind.String(); s != "{tg(3) fit=3}" {
		t.Fatalf("evaluated String = %q", s)
	}
}

func TestRandomPopulation(t *testing.T) {
	r := rng.New(1)
	pop := RandomPopulation(testProblem{}, 20, r)
	if pop.Len() != 20 {
		t.Fatalf("population size %d, want 20", pop.Len())
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("RandomPopulation left member unevaluated")
		}
		if ind.Fitness != float64(ind.Genome.(*testGenome).v) {
			t.Fatal("fitness mismatch")
		}
	}
}

func TestPopulationBestWorst(t *testing.T) {
	pop := NewPopulation(3)
	for _, v := range []int{5, 9, 2} {
		ind := NewIndividual(&testGenome{v: v})
		ind.Fitness, ind.Evaluated = float64(v), true
		pop.Members = append(pop.Members, ind)
	}
	if i := pop.Best(Maximize); i != 1 {
		t.Fatalf("Best(Maximize)=%d want 1", i)
	}
	if i := pop.Worst(Maximize); i != 2 {
		t.Fatalf("Worst(Maximize)=%d want 2", i)
	}
	if i := pop.Best(Minimize); i != 2 {
		t.Fatalf("Best(Minimize)=%d want 2", i)
	}
	if i := pop.Worst(Minimize); i != 1 {
		t.Fatalf("Worst(Minimize)=%d want 1", i)
	}
	if f := pop.BestFitness(Maximize); f != 9 {
		t.Fatalf("BestFitness=%v want 9", f)
	}
}

func TestPopulationBestEmptyAndUnevaluated(t *testing.T) {
	pop := NewPopulation(0)
	if pop.Best(Maximize) != -1 || pop.Worst(Maximize) != -1 {
		t.Fatal("empty population should report -1")
	}
	if !math.IsInf(pop.BestFitness(Maximize), -1) {
		t.Fatal("empty BestFitness should be Worst()")
	}
	pop.Members = append(pop.Members, NewIndividual(&testGenome{v: 1}))
	if pop.Best(Maximize) != -1 {
		t.Fatal("unevaluated members must be ignored")
	}
}

func TestPopulationMeanStd(t *testing.T) {
	pop := NewPopulation(4)
	for _, v := range []int{2, 4, 6, 8} {
		ind := NewIndividual(&testGenome{v: v})
		ind.Fitness, ind.Evaluated = float64(v), true
		pop.Members = append(pop.Members, ind)
	}
	if m := pop.MeanFitness(); m != 5 {
		t.Fatalf("mean=%v want 5", m)
	}
}

func TestPopulationMeanEmpty(t *testing.T) {
	pop := NewPopulation(0)
	if pop.MeanFitness() != 0 {
		t.Fatal("empty population mean should be 0")
	}
}

func TestPopulationCloneDeep(t *testing.T) {
	r := rng.New(2)
	pop := RandomPopulation(testProblem{}, 5, r)
	c := pop.Clone()
	c.Members[0].Genome.(*testGenome).v = -1
	if pop.Members[0].Genome.(*testGenome).v == -1 {
		t.Fatal("Clone aliases members")
	}
}

func TestPopulationReplace(t *testing.T) {
	r := rng.New(3)
	pop := RandomPopulation(testProblem{}, 2, r)
	nw := NewIndividual(&testGenome{v: 42})
	old := pop.Replace(1, nw)
	if pop.Members[1] != nw || old == nw {
		t.Fatal("Replace did not swap")
	}
}

func TestSerialEvaluator(t *testing.T) {
	r := rng.New(4)
	pop := NewPopulation(3)
	for i := 0; i < 3; i++ {
		pop.Members = append(pop.Members, NewIndividual(testProblem{}.NewGenome(r)))
	}
	var ev SerialEvaluator
	ev.EvaluateAll(testProblem{}, pop)
	if ev.Evaluations() != 3 {
		t.Fatalf("evaluations=%d want 3", ev.Evaluations())
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("member left unevaluated")
		}
	}
	// Re-running must not re-evaluate.
	ev.EvaluateAll(testProblem{}, pop)
	if ev.Evaluations() != 3 {
		t.Fatalf("re-evaluated already-evaluated members: %d", ev.Evaluations())
	}
}

func TestMaxGenerations(t *testing.T) {
	c := MaxGenerations(10)
	if c.Done(Status{Generation: 9}) {
		t.Fatal("fired early")
	}
	if !c.Done(Status{Generation: 10}) {
		t.Fatal("did not fire at limit")
	}
	if c.Reason() == "" {
		t.Fatal("empty reason")
	}
}

func TestMaxEvaluations(t *testing.T) {
	c := MaxEvaluations(100)
	if c.Done(Status{Evaluations: 99}) || !c.Done(Status{Evaluations: 100}) {
		t.Fatal("MaxEvaluations boundary wrong")
	}
}

func TestTargetFitness(t *testing.T) {
	c := TargetFitness{Target: 50, Dir: Maximize}
	if c.Done(Status{BestFitness: 49}) || !c.Done(Status{BestFitness: 50}) {
		t.Fatal("TargetFitness maximize boundary wrong")
	}
	cm := TargetFitness{Target: 0.1, Dir: Minimize}
	if cm.Done(Status{BestFitness: 0.2}) || !cm.Done(Status{BestFitness: 0.1}) {
		t.Fatal("TargetFitness minimize boundary wrong")
	}
}

func TestStagnation(t *testing.T) {
	c := NewStagnation(3)
	s := Status{Improved: false}
	if c.Done(s) || c.Done(s) {
		t.Fatal("fired before limit")
	}
	if !c.Done(s) {
		t.Fatal("did not fire at limit")
	}
	// Improvement resets the counter.
	c2 := NewStagnation(2)
	c2.Done(Status{Improved: false})
	c2.Done(Status{Improved: true})
	if c2.Done(Status{Improved: false}) {
		t.Fatal("counter was not reset by improvement")
	}
}

func TestAnyOf(t *testing.T) {
	a := AnyOf{MaxGenerations(5), MaxEvaluations(100)}
	if a.Done(Status{Generation: 4, Evaluations: 50}) {
		t.Fatal("fired early")
	}
	if !a.Done(Status{Generation: 5, Evaluations: 50}) {
		t.Fatal("first child ignored")
	}
	if !a.Done(Status{Generation: 0, Evaluations: 100}) {
		t.Fatal("second child ignored")
	}
	if got := a.FiredReason(Status{Generation: 5}); got != "max generations" {
		t.Fatalf("FiredReason=%q", got)
	}
	if (AnyOf{}).Reason() != "empty condition" {
		t.Fatal("empty AnyOf reason wrong")
	}
}

func TestAnyOfPollsStatefulChildren(t *testing.T) {
	st := NewStagnation(2)
	a := AnyOf{MaxGenerations(1000), st}
	s := Status{Improved: false}
	a.Done(s)
	if !a.Done(s) {
		t.Fatal("stagnation child not advanced through AnyOf")
	}
	if a.FiredReason(s) != "stagnation" {
		t.Fatalf("FiredReason=%q want stagnation", a.FiredReason(s))
	}
	// Nested in an outer AnyOf, as a supervised island run nests the
	// caller's stop beside its own, the child that fired still names it.
	if got := (AnyOf{a, MaxEvaluations(1 << 40)}).FiredReason(s); got != "stagnation" {
		t.Fatalf("nested FiredReason=%q want stagnation", got)
	}
}

func TestResultString(t *testing.T) {
	res := &Result{Problem: "p", RunStats: RunStats{BestFitness: 1, Generations: 2, Evaluations: 3, StopReason: "x"}}
	if res.String() == "" {
		t.Fatal("empty Result.String")
	}
}
