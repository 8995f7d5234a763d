package apps

import (
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

func TestGraphPartitionInstance(t *testing.T) {
	g := NewGraphPartition(40, 0.5, 0.05, 1)
	if g.Edges() == 0 {
		t.Fatal("no edges generated")
	}
	// The planted partition's cut must be far below a random cut.
	r := rng.New(2)
	randomCut := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		randomCut += g.CutSize(g.NewGenome(r).(*genome.BitString))
	}
	if planted := g.PlantedCut(); planted*2 >= randomCut/trials {
		t.Fatalf("planted cut %d not clearly below random %d", planted, randomCut/trials)
	}
}

func TestGraphPartitionImbalancePenalty(t *testing.T) {
	g := NewGraphPartition(20, 0.4, 0.05, 3)
	all := genome.NewBitString(20) // everything on one side: zero cut, max imbalance
	if g.CutSize(all) != 0 {
		t.Fatal("one-sided partition has a cut")
	}
	if g.Imbalance(all) != 10 {
		t.Fatalf("imbalance %d", g.Imbalance(all))
	}
	// The degenerate solution must score worse than the planted one.
	if g.Evaluate(all) <= g.Evaluate(g.planted) {
		t.Fatal("imbalance penalty too weak: one-sided beats planted")
	}
}

func TestGraphPartitionPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGraphPartition(7, 0.5, 0.1, 1)
}

func TestGAFindsGoodPartition(t *testing.T) {
	g := NewGraphPartition(32, 0.5, 0.04, 5)
	e := ga.NewGenerational(ga.Config{
		Problem:   g,
		PopSize:   60,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(6),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(120)})
	// The GA should land within 2× of the planted cut with near balance.
	best := res.Best.Genome.(*genome.BitString)
	if g.Imbalance(best) > 2 {
		t.Fatalf("final partition imbalance %d", g.Imbalance(best))
	}
	if cut := g.CutSize(best); cut > 2*g.PlantedCut()+4 {
		t.Fatalf("GA cut %d far above planted %d", cut, g.PlantedCut())
	}
}

func TestCameraPlacementBasics(t *testing.T) {
	cp := NewCameraPlacement(4, 30, 7)
	r := rng.New(8)
	g := cp.NewGenome(r)
	f := cp.Evaluate(g)
	if f < 0 || f > 1 {
		t.Fatalf("camera fitness out of [0,1]: %v", f)
	}
	cov := cp.Coverage(g)
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage out of range: %v", cov)
	}
	if cp.Name() == "" || cp.Direction() != core.Maximize {
		t.Fatal("metadata wrong")
	}
}

func TestCameraPlacementClusteredCamerasAreBad(t *testing.T) {
	cp := NewCameraPlacement(4, 40, 9)
	// All cameras at the same point: no triangulation angle, poor score.
	clustered := cp.NewGenome(rng.New(10)).(*genome.RealVector)
	for c := 0; c < 4; c++ {
		clustered.Genes[2*c] = 0.3
		clustered.Genes[2*c+1] = 0.2
	}
	// Spread cameras: tetrahedral-ish spacing.
	spread := cp.NewGenome(rng.New(10)).(*genome.RealVector)
	angles := [][2]float64{{0, 0.6}, {2.1, -0.6}, {4.2, 0.6}, {1.0, -0.2}}
	for c, a := range angles {
		spread.Genes[2*c] = a[0]
		spread.Genes[2*c+1] = a[1]
	}
	if cp.Evaluate(spread) <= cp.Evaluate(clustered) {
		t.Fatalf("spread cameras (%v) not better than clustered (%v)",
			cp.Evaluate(spread), cp.Evaluate(clustered))
	}
}

func TestGAImprovesCameraNetwork(t *testing.T) {
	cp := NewCameraPlacement(4, 30, 11)
	r := rng.New(12)
	randomScore := 0.0
	for i := 0; i < 10; i++ {
		randomScore += cp.Evaluate(cp.NewGenome(r))
	}
	randomScore /= 10
	e := ga.NewGenerational(ga.Config{
		Problem:   cp,
		PopSize:   40,
		Crossover: operators.BLX{},
		Mutator:   operators.Gaussian{P: 0.3, Sigma: 0.3},
		RNG:       rng.New(13),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(60)})
	if res.BestFitness <= randomScore {
		t.Fatalf("GA (%v) did not beat random placement (%v)", res.BestFitness, randomScore)
	}
}
