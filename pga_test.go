package pga

import (
	"testing"
)

func TestFacadeSequential(t *testing.T) {
	prob := OneMax(64)
	e := NewGenerational(GAConfig{
		Problem:   prob,
		PopSize:   60,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(1),
	})
	res := Run(e, RunOptions{Stop: AnyOf{MaxGenerations(300), Target(prob)}})
	if !res.Solved {
		t.Fatalf("facade generational failed: %v", res.BestFitness)
	}
}

func TestFacadeSteadyState(t *testing.T) {
	prob := OneMax(48)
	e := NewSteadyState(GAConfig{
		Problem:   prob,
		PopSize:   40,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(2),
	})
	res := Run(e, RunOptions{Stop: AnyOf{MaxGenerations(300), Target(prob)}})
	if !res.Solved {
		t.Fatalf("facade steady-state failed: %v", res.BestFitness)
	}
}

func TestFacadeIslands(t *testing.T) {
	prob := OneMax(64)
	m := NewIslands(IslandConfig{
		Demes:    4,
		Topology: Ring,
		GA: GAConfig{
			Problem:   prob,
			PopSize:   30,
			Crossover: UniformCrossover{},
			Mutator:   BitFlip{},
		},
		Migration: Migration{Interval: 5, Count: 2},
		Seed:      3,
	})
	res := m.RunSequential(AnyOf{MaxGenerations(300), Target(prob)}, Control{})
	if !res.Solved {
		t.Fatalf("facade islands failed: %v", res.BestFitness)
	}
}

func TestFacadeAllTopologies(t *testing.T) {
	prob := OneMax(24)
	for _, top := range []TopologyKind{Ring, BiRing, Star, Complete, Hypercube, Isolated} {
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

func TestFacadeHypercubePanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two hypercube")
		}
	}()
	NewIslands(IslandConfig{
		Demes:    5,
		Topology: Hypercube,
		GA:       GAConfig{Problem: OneMax(8), PopSize: 4, Mutator: BitFlip{}},
	})
}

func TestFacadeFarm(t *testing.T) {
	prob := OneMax(48)
	farm := NewFarm(5, UniformWorkers(4))
	e := NewGenerational(GAConfig{
		Problem:   prob,
		PopSize:   40,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		Evaluator: farm,
		RNG:       NewRNG(6),
	})
	res := Run(e, RunOptions{Stop: AnyOf{MaxGenerations(300), Target(prob)}})
	if !res.Solved {
		t.Fatalf("facade farm failed: %v", res.BestFitness)
	}
}

func TestFacadeCellular(t *testing.T) {
	prob := OneMax(32)
	e := NewCellular(CellularConfig{
		Problem:   prob,
		Rows:      6,
		Cols:      6,
		Update:    NewRandomSweepUpdate,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(7),
	})
	res := Run(e, RunOptions{Stop: AnyOf{MaxGenerations(200), Target(prob)}})
	if !res.Solved {
		t.Fatalf("facade cellular failed: %v", res.BestFitness)
	}
}

func TestFacadeHGA(t *testing.T) {
	m := NewHGA(HGAConfig{
		Problem:   QuantizedFidelity(Sphere(6)),
		Crossover: SBXCrossover{},
		Mutator:   PolynomialMutation{},
		Seed:      8,
	})
	res := m.Run(3000, Control{})
	if res.Evaluations == 0 {
		t.Fatal("facade HGA ran nothing")
	}
}

func TestFacadeSIM(t *testing.T) {
	for _, s := range SIMScenarios() {
		res := RunSIM(SIMConfig{
			Problem:     ZDT1(8),
			Scenario:    s,
			DemeSize:    16,
			Generations: 10,
			Seed:        9,
		}, Control{})
		if res.Archive.Len() == 0 {
			t.Fatalf("scenario %v produced empty archive", s)
		}
	}
}

func TestFacadeRealValuedProblems(t *testing.T) {
	r := NewRNG(10)
	for _, p := range []Problem{Sphere(4), Rastrigin(4), Rosenbrock(4), Ackley(4), Griewank(4), Schwefel(4)} {
		g := p.NewGenome(r)
		_ = p.Evaluate(g)
		if p.Direction() != Minimize {
			t.Fatalf("%s not minimised", p.Name())
		}
	}
	if DeceptiveTrap(4, 4).Direction() != Maximize {
		t.Fatal("trap direction")
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
	// Engines accept a nil RNG and default to seed 0.
	e := NewGenerational(GAConfig{Problem: OneMax(8), PopSize: 6, Mutator: BitFlip{}})
	e.Step()
	e2 := NewSteadyState(GAConfig{Problem: OneMax(8), PopSize: 6, Mutator: BitFlip{}})
	e2.Step()
	e3 := NewCellular(CellularConfig{Problem: OneMax(8), Rows: 3, Cols: 3, Mutator: BitFlip{}})
	e3.Step()
}

func TestFacadeCheckpoint(t *testing.T) {
	prob := OneMax(32)
	r := NewRNG(3)
	e := NewGenerational(GAConfig{Problem: prob, PopSize: 10, Mutator: BitFlip{}, RNG: r})
	for i := 0; i < 5; i++ {
		e.Step()
	}
	cp, err := CaptureCheckpoint(e.Population(), r, 5, e.Evaluations())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRNG(99)
	pop, err := cp2.Restore(r2)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Len() != 10 {
		t.Fatalf("restored %d members", pop.Len())
	}
}

func TestFacadeP2P(t *testing.T) {
	prob := OneMax(32)
	n := NewP2P(P2PConfig{
		Problem: prob,
		Peers:   6,
		NewEngine: func(peer int, r *RNG) Engine {
			return NewGenerational(GAConfig{
				Problem: prob, PopSize: 10,
				Crossover: UniformCrossover{}, Mutator: BitFlip{}, RNG: r,
			})
		},
		ChurnRate: 0.02,
		Seed:      4,
	})
	res := n.Run(150, Control{})
	if !res.Solved {
		t.Fatalf("P2P overlay failed: %v", res.BestFitness)
	}
}

func TestFacadeNewProblems(t *testing.T) {
	r := NewRNG(11)
	for _, p := range []Problem{Step(4), Foxholes()} {
		g := p.NewGenome(r)
		_ = p.Evaluate(g)
		if p.Direction() != Minimize || p.Name() == "" {
			t.Fatalf("%s metadata wrong", p.Name())
		}
	}
}

func TestFacadeParallelGenerational(t *testing.T) {
	prob := OneMax(48)
	e := NewParallelGenerational(GAConfig{
		Problem:   prob,
		PopSize:   40,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(12),
	}, 4)
	res := Run(e, RunOptions{Stop: AnyOf{MaxGenerations(300), Target(prob)}})
	if !res.Solved {
		t.Fatalf("parallel generational facade failed: %v", res.BestFitness)
	}
	// Nil RNG default.
	e2 := NewParallelGenerational(GAConfig{Problem: OneMax(8), PopSize: 6, Mutator: BitFlip{}}, 2)
	e2.Step()
}

func TestFacadeSupervisedIslands(t *testing.T) {
	prob := OneMax(48)
	cfg := IslandConfig{
		Demes:    4,
		Topology: Ring,
		GA: GAConfig{
			Problem:   prob,
			PopSize:   25,
			Crossover: UniformCrossover{},
			Mutator:   BitFlip{},
		},
		Migration:  Migration{Interval: 5, Count: 2, Sync: true},
		Seed:       14,
		Resilience: &Resilience{CheckpointEvery: 5, MaxRestarts: 3},
		Faults:     NewFaultPlan().PanicAt(1, 4),
	}
	res := NewIslands(cfg).RunParallel(300, Control{})
	if !res.Solved {
		t.Fatalf("supervised facade run failed: %v", res.BestFitness)
	}
	if res.PanicsRecovered < 1 || res.Restarts < 1 {
		t.Fatalf("injected panic not recovered: %+v", res)
	}
	if len(res.Failures) == 0 || res.Failures[0].Kind != FailurePanic {
		t.Fatalf("failure log wrong: %+v", res.Failures)
	}
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
	}).RunParallel(300, Control{})
	if res.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", res.PanicsRecovered)
	}
	if !res.Solved {
		t.Fatalf("run did not recover: %v", res.BestFitness)
	}
}

func TestFacadeERX(t *testing.T) {
	r := NewRNG(13)
	a := &Permutation{Perm: r.Perm(10)}
	b := &Permutation{Perm: r.Perm(10)}
	c1, c2 := (ERXCrossover{}).Cross(a, b, r)
	if !c1.(*Permutation).Valid() || !c2.(*Permutation).Valid() {
		t.Fatal("ERX children invalid through facade")
	}
}
