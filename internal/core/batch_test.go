package core

import (
	"testing"

	"pga/internal/rng"
)

// batchTestProblem implements BatchProblem over testGenome, recording
// how it was invoked.
type batchTestProblem struct {
	batchCalls int
	evalCalls  int
}

func (*batchTestProblem) Name() string                   { return "batchtest" }
func (*batchTestProblem) Direction() Direction           { return Maximize }
func (*batchTestProblem) NewGenome(r *rng.Source) Genome { return &testGenome{v: r.Intn(101)} }
func (p *batchTestProblem) Evaluate(g Genome) float64 {
	p.evalCalls++
	return float64(g.(*testGenome).v)
}
func (p *batchTestProblem) EvaluateBatch(genomes []Genome, out []float64) {
	p.batchCalls++
	for i, g := range genomes {
		out[i] = float64(g.(*testGenome).v)
	}
}

// batcherTestProblem is not a BatchProblem itself (the embedded
// Problem interface hides EvaluateBatch) but hands its inner one out.
type batcherTestProblem struct {
	Problem
	inner *batchTestProblem
}

func (p batcherTestProblem) Batch() BatchProblem { return p.inner }

func TestSerialEvaluatorUsesBatch(t *testing.T) {
	t.Run("BatchProblem", func(t *testing.T) {
		p := &batchTestProblem{}
		testSerialEvaluatorUsesBatch(t, p, p)
	})
	t.Run("Batcher", func(t *testing.T) {
		p := &batchTestProblem{}
		testSerialEvaluatorUsesBatch(t, batcherTestProblem{p, p}, p)
	})
}

// testSerialEvaluatorUsesBatch evaluates through prob and checks that
// the work arrived at p as one batch call.
func testSerialEvaluatorUsesBatch(t *testing.T, prob Problem, p *batchTestProblem) {
	pop := NewPopulation(10)
	for i := 0; i < 10; i++ {
		pop.Members = append(pop.Members, NewIndividual(&testGenome{v: i}))
	}
	// Pre-evaluate two members: only the pending eight may be batched.
	pop.Members[3].Fitness, pop.Members[3].Evaluated = 3, true
	pop.Members[7].Fitness, pop.Members[7].Evaluated = 7, true

	var e SerialEvaluator
	e.EvaluateAll(prob, pop)

	if p.batchCalls != 1 || p.evalCalls != 0 {
		t.Fatalf("batch=%d eval=%d, want one batch call and no scalar calls", p.batchCalls, p.evalCalls)
	}
	if e.Evaluations() != 8 {
		t.Fatalf("Evaluations=%d, want 8 (pending only)", e.Evaluations())
	}
	for i, ind := range pop.Members {
		if !ind.Evaluated || ind.Fitness != float64(i) {
			t.Fatalf("member %d: fitness %v evaluated %v", i, ind.Fitness, ind.Evaluated)
		}
	}

	// All evaluated: no batch call at all.
	e.EvaluateAll(prob, pop)
	if p.batchCalls != 1 {
		t.Fatal("batch call issued with nothing pending")
	}
}

func TestSerialEvaluatorBatchMatchesScalar(t *testing.T) {
	// The batched path must produce fitness values identical to the
	// scalar path for the same genomes.
	build := func() *Population {
		r := rng.New(5)
		pop := NewPopulation(20)
		for i := 0; i < 20; i++ {
			pop.Members = append(pop.Members, NewIndividual(&testGenome{v: r.Intn(101)}))
		}
		return pop
	}
	batched, scalar := build(), build()

	var e1 SerialEvaluator
	e1.EvaluateAll(&batchTestProblem{}, batched)
	var e2 SerialEvaluator
	e2.EvaluateAll(testProblem{}, scalar) // no BatchProblem: scalar path

	for i := range batched.Members {
		if batched.Members[i].Fitness != scalar.Members[i].Fitness {
			t.Fatalf("member %d: batched %v != scalar %v", i,
				batched.Members[i].Fitness, scalar.Members[i].Fitness)
		}
	}
	if e1.Evaluations() != e2.Evaluations() {
		t.Fatal("evaluation counts diverge between paths")
	}
}

func TestSerialEvaluatorBatchReleasesGenomes(t *testing.T) {
	// The gather buffer must not pin genome pointers between calls.
	p := &batchTestProblem{}
	pop := NewPopulation(4)
	for i := 0; i < 4; i++ {
		pop.Members = append(pop.Members, NewIndividual(&testGenome{v: i}))
	}
	var e SerialEvaluator
	e.EvaluateAll(p, pop)
	for k := range e.genomes[:4] {
		if e.genomes[k] != nil {
			t.Fatalf("gather slot %d still pins a genome", k)
		}
	}
}
