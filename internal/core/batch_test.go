package core

import (
	"sync"
	"testing"

	"pga/internal/rng"
)

// hashGenome is a Hashable one-word genome for cache tests.
type hashGenome struct{ v uint64 }

func (g *hashGenome) Clone() Genome             { c := *g; return &c }
func (g *hashGenome) CopyFrom(src Genome)       { *g = *src.(*hashGenome) }
func (g *hashGenome) Len() int                  { return 1 }
func (g *hashGenome) String() string            { return "hg" }
func (g *hashGenome) Hash128() (uint64, uint64) { return g.v, ^g.v }

// countingProblem counts Evaluate calls (mutex-guarded: the purity
// exemption covers CachedProblem, not this fixture, so it lives in a
// test file where the lint does not look).
type countingProblem struct {
	mu    sync.Mutex
	calls int
}

func (*countingProblem) Name() string                   { return "counting" }
func (*countingProblem) Direction() Direction           { return Maximize }
func (*countingProblem) NewGenome(r *rng.Source) Genome { return &hashGenome{v: r.Uint64()} }
func (p *countingProblem) Evaluate(g Genome) float64 {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	return float64(g.(*hashGenome).v % 97)
}

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

func TestCachedProblemHitIsBitIdentical(t *testing.T) {
	inner := &countingProblem{}
	c := NewCachedProblem(inner, 0)
	g := &hashGenome{v: 12345}

	fresh := c.Evaluate(g) // miss: delegates
	hit := c.Evaluate(g)   // hit: memo
	if fresh != hit {
		t.Fatalf("cache hit %v differs from fresh evaluation %v", hit, fresh)
	}
	if inner.calls != 1 {
		t.Fatalf("inner evaluated %d times, want 1", inner.calls)
	}
	if h, m := c.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestCachedProblemBypassesUnhashable(t *testing.T) {
	c := NewCachedProblem(testProblem{}, 0)
	g := &testGenome{v: 42} // not Hashable
	if f := c.Evaluate(g); f != 42 {
		t.Fatalf("bypass evaluation = %v", f)
	}
	if h, m := c.CacheStats(); h != 0 || m != 0 {
		t.Fatal("unhashable genome touched the cache counters")
	}
	if c.Len() != 0 {
		t.Fatal("unhashable genome was memoised")
	}
}

func TestCachedProblemEpochEviction(t *testing.T) {
	inner := &countingProblem{}
	c := NewCachedProblem(inner, 4)
	for v := uint64(0); v < 4; v++ {
		c.Evaluate(&hashGenome{v: v})
	}
	if c.Len() != 4 {
		t.Fatalf("Len=%d before eviction, want 4", c.Len())
	}
	// The fifth distinct genome clears the epoch, then memoises itself.
	c.Evaluate(&hashGenome{v: 99})
	if c.Len() != 1 {
		t.Fatalf("Len=%d after eviction, want 1", c.Len())
	}
	// Evicted entries become misses again, with unchanged values.
	before := inner.calls
	if f := c.Evaluate(&hashGenome{v: 2}); f != 2%97 {
		t.Fatalf("re-evaluated fitness %v", f)
	}
	if inner.calls != before+1 {
		t.Fatal("evicted entry did not re-evaluate")
	}
}

func TestCachedProblemConcurrent(t *testing.T) {
	// The Problem contract requires concurrent Evaluate safety; hammer
	// the cache from several goroutines (run with -race in CI).
	c := NewCachedProblem(&countingProblem{}, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 200; i++ {
				g := &hashGenome{v: r.Uint64() % 100}
				want := float64(g.v % 97)
				if got := c.Evaluate(g); got != want {
					t.Errorf("concurrent evaluate %v, want %v", got, want)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	h, m := c.CacheStats()
	if h+m != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", h+m, 8*200)
	}
}

func TestCachedProblemTargetDelegation(t *testing.T) {
	// Wrapping a TargetAware problem delegates both methods.
	c := NewCachedProblem(testProblem{}, 0)
	if c.Optimum() != 100 || !c.Solved(100) || c.Solved(99) {
		t.Fatal("TargetAware delegation wrong")
	}
	// Wrapping a target-less problem: Solved is false, Optimum panics.
	c2 := NewCachedProblem(&batchTestProblem{}, 0)
	if c2.Solved(1e9) {
		t.Fatal("target-less problem reported solved")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Optimum did not panic for target-less problem")
		}
	}()
	c2.Optimum()
}
