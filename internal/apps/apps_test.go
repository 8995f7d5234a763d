package apps

import (
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

func TestCircleTSPOptimum(t *testing.T) {
	tsp := NewCircleTSP(12)
	// The identity permutation is the optimal circular tour.
	ident := genome.IdentityPermutation(12)
	got := tsp.Evaluate(ident)
	if math.Abs(got-tsp.Optimum()) > 1e-9 {
		t.Fatalf("circle tour length %v, optimum %v", got, tsp.Optimum())
	}
	if !tsp.Solved(got) {
		t.Fatal("optimal tour not recognised as solved")
	}
}

func TestTSPRandomWorseThanOptimal(t *testing.T) {
	tsp := NewCircleTSP(24)
	r := rng.New(1)
	worse := 0
	for i := 0; i < 50; i++ {
		if tsp.Evaluate(tsp.NewGenome(r)) > tsp.Optimum()*1.01 {
			worse++
		}
	}
	if worse < 48 {
		t.Fatalf("random tours too good: only %d/50 worse than optimum", worse)
	}
}

func TestTSPTourLengthInvariantUnderRotation(t *testing.T) {
	tsp := NewClusteredTSP(10, 3, 2)
	r := rng.New(3)
	p := tsp.NewGenome(r).(*genome.Permutation)
	base := tsp.Evaluate(p)
	// Rotating a closed tour must not change its length.
	rot := &genome.Permutation{Perm: append(p.Perm[3:], p.Perm[:3]...)}
	if math.Abs(tsp.Evaluate(rot)-base) > 1e-9 {
		t.Fatal("tour length not rotation invariant")
	}
}

func TestTSPInstanceGenerators(t *testing.T) {
	if NewClusteredTSP(30, 5, 1).Cities() != 30 {
		t.Fatal("clustered size")
	}
	// Deterministic per seed.
	a, b := NewClusteredTSP(10, 3, 7), NewClusteredTSP(10, 3, 7)
	g := genome.IdentityPermutation(10)
	if a.Evaluate(g) != b.Evaluate(g) {
		t.Fatal("instance not seed-deterministic")
	}
}

func TestGASolvesCircleTSP(t *testing.T) {
	tsp := NewCircleTSP(10)
	e := ga.NewGenerational(ga.Config{
		Problem:   tsp,
		PopSize:   80,
		Crossover: operators.OX{},
		Mutator:   operators.Inversion{},
		RNG:       rng.New(4),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(200),
		core.TargetFitness{Target: tsp.Optimum() * 1.001, Dir: core.Minimize},
	}})
	if !tsp.Solved(res.BestFitness) {
		t.Fatalf("GA failed circle TSP: %v vs optimum %v", res.BestFitness, tsp.Optimum())
	}
}

func TestSchedulingBounds(t *testing.T) {
	s := NewScheduling(50, 5, 1)
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		f := s.Evaluate(s.NewGenome(r))
		if f < s.LowerBound() {
			t.Fatalf("makespan %v below lower bound %v", f, s.LowerBound())
		}
	}
}

func TestSchedulingAllOnOneMachineIsWorst(t *testing.T) {
	s := NewScheduling(20, 4, 2)
	all0 := genome.NewIntVector(20, 4) // all tasks on machine 0
	worst := s.Evaluate(all0)
	r := rng.New(6)
	for i := 0; i < 30; i++ {
		if s.Evaluate(s.NewGenome(r)) > worst {
			t.Fatal("random assignment worse than all-on-one")
		}
	}
}

func TestGAImprovesScheduling(t *testing.T) {
	s := NewScheduling(60, 6, 3)
	e := ga.NewGenerational(ga.Config{
		Problem:   s,
		PopSize:   60,
		Crossover: operators.Uniform{},
		Mutator:   operators.UniformReset{P: 0.05},
		RNG:       rng.New(7),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(80)})
	// GA should land within 15% of the lower bound on this easy instance.
	if res.BestFitness > s.LowerBound()*1.15 {
		t.Fatalf("GA makespan %v too far above lower bound %v", res.BestFitness, s.LowerBound())
	}
}

func TestFeatureSelectionInformativeBeatsNoise(t *testing.T) {
	fs := NewFeatureSelection(30, 5, 3, 20, 8)
	informative := fs.InformativeMask()
	accInf := fs.Accuracy(informative)
	// Noise-only mask.
	noise := genome.NewBitString(30)
	for f := 5; f < 10; f++ {
		noise.Set(f, true)
	}
	accNoise := fs.Accuracy(noise)
	if accInf <= accNoise {
		t.Fatalf("informative features (%v) not better than noise (%v)", accInf, accNoise)
	}
	if accInf < 0.8 {
		t.Fatalf("informative accuracy only %v", accInf)
	}
}

func TestFeatureSelectionParsimony(t *testing.T) {
	fs := NewFeatureSelection(30, 5, 3, 20, 9)
	full := genome.NewBitString(30)
	for i := 0; i < full.Len(); i++ {
		full.Set(i, true)
	}
	inf := fs.InformativeMask()
	// With equal-ish accuracy, the smaller subset must score higher.
	if fs.Evaluate(inf) <= fs.Evaluate(full)-0.01 {
		t.Fatalf("parsimony not rewarded: informative %v vs full %v", fs.Evaluate(inf), fs.Evaluate(full))
	}
	// Empty mask scores zero.
	if fs.Evaluate(genome.NewBitString(30)) != 0 {
		t.Fatal("empty mask not zero")
	}
}

func TestFeatureSelectionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFeatureSelection(5, 10, 2, 5, 1)
}

func TestGAFindsInformativeFeatures(t *testing.T) {
	fs := NewFeatureSelection(24, 4, 3, 15, 10)
	e := ga.NewGenerational(ga.Config{
		Problem:   fs,
		PopSize:   50,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(11),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(60)})
	target := fs.Evaluate(fs.InformativeMask())
	if res.BestFitness < target-0.05 {
		t.Fatalf("GA fitness %v well below informative-mask fitness %v", res.BestFitness, target)
	}
}

func TestImageRegistrationTruthIsNearOptimal(t *testing.T) {
	ir := NewImageRegistration(32, 12)
	truth := genome.NewRealVector(3, 0, 1)
	truth.Lo[0], truth.Hi[0] = -ir.MaxShift, ir.MaxShift
	truth.Lo[1], truth.Hi[1] = -ir.MaxShift, ir.MaxShift
	truth.Lo[2], truth.Hi[2] = -ir.MaxAngle, ir.MaxAngle
	tt := ir.Truth()
	copy(truth.Genes, tt[:])
	fTruth := ir.Evaluate(truth)
	r := rng.New(13)
	better := 0
	for i := 0; i < 30; i++ {
		if ir.Evaluate(ir.NewGenome(r)) > fTruth {
			better++
		}
	}
	if better > 1 {
		t.Fatalf("%d/30 random transforms beat the ground truth", better)
	}
	if ir.TransformError(truth) > 1e-9 {
		t.Fatal("truth transform has nonzero error")
	}
}

func TestImageRegistrationDownsampleConsistent(t *testing.T) {
	ir := NewImageRegistration(32, 14)
	r := rng.New(15)
	g := ir.NewGenome(r)
	full := ir.Evaluate(g)
	ir.Downsample = 4
	coarse := ir.Evaluate(g)
	ir.Downsample = 1
	// Same order of magnitude: the coarse score approximates the full one.
	if full == 0 || coarse == 0 {
		t.Fatal("degenerate SSD")
	}
	if math.Abs(full-coarse) > math.Abs(full)*0.8+0.05 {
		t.Fatalf("downsampled SSD uncorrelated: full=%v coarse=%v", full, coarse)
	}
}

func TestGARegistersImage(t *testing.T) {
	ir := NewImageRegistration(24, 16)
	ir.Downsample = 2
	e := ga.NewGenerational(ga.Config{
		Problem:   ir,
		PopSize:   60,
		Crossover: operators.BLX{},
		Mutator:   operators.Gaussian{P: 0.5, Sigma: 0.3},
		RNG:       rng.New(17),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(60)})
	if err := ir.TransformError(res.Best.Genome); err > 1.5 {
		t.Fatalf("registration error %v pixels", err)
	}
}

func TestStockPredictionBaselines(t *testing.T) {
	sp := NewStockPrediction(400, 5, 4, 18)
	if sp.WeightCount() != 5*4+4+4+1 {
		t.Fatalf("weight count %d", sp.WeightCount())
	}
	r := rng.New(19)
	g := sp.NewGenome(r)
	if sp.Evaluate(g) <= 0 {
		t.Fatal("MSE not positive")
	}
	if sp.BuyAndHoldMSE() <= 0 {
		t.Fatal("baseline MSE not positive")
	}
}

func TestGABeatsBuyAndHold(t *testing.T) {
	// Kwon & Moon's qualitative claim: the neuro-genetic predictor beats
	// the naive baseline (here: on training fit and usually held-out too).
	sp := NewStockPrediction(400, 5, 4, 20)
	e := ga.NewGenerational(ga.Config{
		Problem:   sp,
		PopSize:   60,
		Crossover: operators.BLX{},
		Mutator:   operators.Gaussian{P: 0.2, Sigma: 0.2},
		RNG:       rng.New(21),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(80)})
	test := sp.TestMSE(res.Best.Genome)
	naive := sp.BuyAndHoldMSE()
	if test > naive*1.05 {
		t.Fatalf("neuro-genetic test MSE %v worse than buy&hold %v", test, naive)
	}
}

func TestSpectralEstimationTruthOptimal(t *testing.T) {
	se := NewSpectralEstimation(500, 22)
	truth := genome.NewRealVector(2, -2, 2)
	tt := se.Truth()
	copy(truth.Genes, tt[:])
	fTruth := se.Evaluate(truth)
	r := rng.New(23)
	for i := 0; i < 30; i++ {
		if se.Evaluate(se.NewGenome(r)) < fTruth*0.95 {
			t.Fatal("random coefficients beat the generator")
		}
	}
	if se.CoefficientError(truth) != 0 {
		t.Fatal("truth has nonzero coefficient error")
	}
}

func TestGARecoversARCoefficients(t *testing.T) {
	se := NewSpectralEstimation(500, 24)
	e := ga.NewGenerational(ga.Config{
		Problem:   se,
		PopSize:   40,
		Crossover: operators.SBX{},
		Mutator:   operators.Polynomial{},
		RNG:       rng.New(25),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(60)})
	if err := se.CoefficientError(res.Best.Genome); err > 0.1 {
		t.Fatalf("AR coefficient error %v", err)
	}
}

func TestReactorCoreUniformLoadingNearFlat(t *testing.T) {
	rc := NewReactorCore(7, 3, 26)
	uniform := genome.NewIntVector(49, 3)
	for i := range uniform.Genes {
		uniform.Genes[i] = 1
	}
	pf := rc.PeakFactor(uniform)
	if pf < 1 {
		t.Fatalf("peak factor %v below 1", pf)
	}
	// Uniform enrichment still peaks at the centre (importance-driven).
	if pf > 2.5 {
		t.Fatalf("uniform loading peak factor implausible: %v", pf)
	}
	if rc.ReactivityExcess(uniform) != 0 {
		t.Fatal("mid-class uniform loading should be critical")
	}
}

func TestReactorCoreGAFlattensPower(t *testing.T) {
	rc := NewReactorCore(7, 3, 27)
	uniform := genome.NewIntVector(49, 3)
	for i := range uniform.Genes {
		uniform.Genes[i] = 1
	}
	base := rc.Evaluate(uniform)
	e := ga.NewGenerational(ga.Config{
		Problem:   rc,
		PopSize:   60,
		Crossover: operators.TwoPoint{},
		Mutator:   operators.UniformReset{P: 0.03},
		RNG:       rng.New(28),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.MaxGenerations(120)})
	// The GA loads low enrichment in the centre, flattening power below
	// the uniform loading (Pereira's optimisation outcome).
	if res.BestFitness >= base {
		t.Fatalf("GA (%v) did not beat uniform loading (%v)", res.BestFitness, base)
	}
}

func TestAppProblemsMetadata(t *testing.T) {
	ps := []core.Problem{
		NewCircleTSP(8), NewClusteredTSP(8, 2, 1),
		NewScheduling(8, 2, 1), NewFeatureSelection(8, 2, 2, 5, 1),
		NewImageRegistration(16, 1), NewStockPrediction(100, 3, 2, 1),
		NewSpectralEstimation(100, 1), NewReactorCore(5, 2, 1),
	}
	r := rng.New(29)
	for _, p := range ps {
		if p.Name() == "" {
			t.Fatalf("%T empty name", p)
		}
		g := p.NewGenome(r)
		f := p.Evaluate(g)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("%s produced non-finite fitness", p.Name())
		}
	}
}
