package pga

import "testing"

func TestFacadeAllTopologies(t *testing.T) {
	prob := OneMax(24)
	for _, top := range []TopologyKind{Ring, BiRing} {
		m := NewIslands(IslandConfig{
			Demes:    4,
			Topology: top,
			GA: GAConfig{
				Problem:   prob,
				PopSize:   10,
				Crossover: UniformCrossover{},
				Mutator:   BitFlip{},
			},
			Migration: Migration{Interval: 3, Count: 1},
			Seed:      4,
		})
		res := m.RunSequential(MaxGenerations(10), Control{})
		if res.Evaluations == 0 {
			t.Fatalf("topology %d ran no evaluations", top)
		}
	}
}

func TestTargetPanicsWithoutOptimum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Target(noTargetProblem{})
}

type noTargetProblem struct{}

func (noTargetProblem) Name() string              { return "x" }
func (noTargetProblem) Direction() Direction      { return Maximize }
func (noTargetProblem) NewGenome(r *RNG) Genome   { return nil }
func (noTargetProblem) Evaluate(g Genome) float64 { return 0 }

func TestFacadeDefaultRNG(t *testing.T) {
	// NewGenerational accepts a nil RNG and defaults to seed 0.
	e := NewGenerational(GAConfig{Problem: OneMax(8), PopSize: 6, Mutator: BitFlip{}})
	e.Step()
}

func TestFacadeFaultPlanImpliesSupervision(t *testing.T) {
	// A fault plan without explicit Resilience still runs supervised
	// (otherwise the injected panic would crash the process).
	prob := OneMax(32)
	res := NewIslands(IslandConfig{
		Demes:    4,
		Topology: Ring,
		GA: GAConfig{
			Problem:   prob,
			PopSize:   20,
			Crossover: UniformCrossover{},
			Mutator:   BitFlip{},
		},
		Migration: Migration{Interval: 5, Count: 1, Sync: true},
		Seed:      15,
		Faults:    NewFaultPlan().PanicAt(0, 2),
	}).RunParallel(AnyOf{MaxGenerations(300), Target(prob)}, Control{})
	if res.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", res.PanicsRecovered)
	}
	if !res.Solved {
		t.Fatalf("run did not recover: %v", res.BestFitness)
	}
}
