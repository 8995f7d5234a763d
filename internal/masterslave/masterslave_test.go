package masterslave

import (
	"sync/atomic"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// countingProblem wraps OneMax and counts concurrent-safe evaluations.
type countingProblem struct {
	inner core.Problem
	n     atomic.Int64
}

func (c *countingProblem) Name() string                        { return c.inner.Name() }
func (c *countingProblem) Direction() core.Direction           { return c.inner.Direction() }
func (c *countingProblem) NewGenome(r *rng.Source) core.Genome { return c.inner.NewGenome(r) }
func (c *countingProblem) Evaluate(g core.Genome) float64 {
	c.n.Add(1)
	return c.inner.Evaluate(g)
}

func freshPop(p core.Problem, n int, seed uint64) *core.Population {
	r := rng.New(seed)
	pop := core.NewPopulation(n)
	for i := 0; i < n; i++ {
		pop.Members = append(pop.Members, core.NewIndividual(p.NewGenome(r)))
	}
	return pop
}

func TestFarmEvaluatesEverything(t *testing.T) {
	p := &countingProblem{inner: problems.OneMax{N: 32}}
	f := NewFarm(1, Uniform(4))
	pop := freshPop(p, 50, 1)
	f.EvaluateAll(p, pop)
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("member left unevaluated")
		}
	}
	if f.Evaluations() != 50 {
		t.Fatalf("evals = %d, want 50", f.Evaluations())
	}
	if p.n.Load() != 50 {
		t.Fatalf("problem evaluated %d times", p.n.Load())
	}
}

func TestFarmSkipsAlreadyEvaluated(t *testing.T) {
	p := problems.OneMax{N: 8}
	f := NewFarm(2, Uniform(2))
	pop := freshPop(p, 10, 2)
	pop.Members[0].Fitness, pop.Members[0].Evaluated = 99, true
	f.EvaluateAll(p, pop)
	if pop.Members[0].Fitness != 99 {
		t.Fatal("re-evaluated an evaluated member")
	}
	if f.Evaluations() != 9 {
		t.Fatalf("evals = %d, want 9", f.Evaluations())
	}
}

func TestFarmFitnessCorrect(t *testing.T) {
	p := problems.OneMax{N: 64}
	f := NewFarm(3, Uniform(8))
	pop := freshPop(p, 40, 3)
	f.EvaluateAll(p, pop)
	for _, ind := range pop.Members {
		if ind.Fitness != p.Evaluate(ind.Genome) {
			t.Fatal("parallel fitness differs from direct evaluation")
		}
	}
}

func TestFarmWithTransientFailures(t *testing.T) {
	p := &countingProblem{inner: problems.OneMax{N: 32}}
	specs := []WorkerSpec{
		{Speed: 1, FailProb: 0.5}, // flaky but immortal
		{Speed: 1},
	}
	f := NewFarm(4, specs)
	pop := freshPop(p, 60, 4)
	f.EvaluateAll(p, pop)
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("failure handling lost a task")
		}
	}
	st := f.Stats()
	if st.Failures == 0 {
		t.Fatal("fault injection never fired at FailProb=0.5")
	}
	if st.Redispatched != st.Failures {
		t.Fatalf("redispatched %d != failures %d", st.Redispatched, st.Failures)
	}
	if st.Evaluations != 60 {
		t.Fatalf("evaluations %d", st.Evaluations)
	}
}

func TestFarmHardFailureKillsWorker(t *testing.T) {
	specs := []WorkerSpec{
		{Speed: 1, FailProb: 1.0, MaxFailures: 3}, // dies after 3 failures
		{Speed: 1},
	}
	f := NewFarm(5, specs)
	p := problems.OneMax{N: 16}
	pop := freshPop(p, 40, 5)
	f.EvaluateAll(p, pop)
	st := f.Stats()
	if st.DeadWorkers != 1 {
		t.Fatalf("dead workers = %d, want 1", st.DeadWorkers)
	}
	if st.TasksPerWorker[0] != 0 {
		t.Fatal("always-failing worker completed tasks")
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("hard failure lost a task")
		}
	}
}

func TestFarmAllWorkersDeadMasterFallback(t *testing.T) {
	specs := []WorkerSpec{
		{FailProb: 1.0, MaxFailures: 1},
		{FailProb: 1.0, MaxFailures: 1},
	}
	f := NewFarm(6, specs)
	p := problems.OneMax{N: 16}
	pop := freshPop(p, 30, 6)
	f.EvaluateAll(p, pop) // must terminate and evaluate everything
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("master fallback did not complete the work")
		}
	}
	if f.Stats().DeadWorkers != 2 {
		t.Fatal("workers should both be dead")
	}
	// A second EvaluateAll goes straight to master fallback.
	pop2 := freshPop(p, 10, 7)
	f.EvaluateAll(p, pop2)
	for _, ind := range pop2.Members {
		if !ind.Evaluated {
			t.Fatal("second master-fallback run failed")
		}
	}
}

func TestFarmSelfSchedulingAdaptivity(t *testing.T) {
	// A dead-on-arrival worker takes no share; the healthy workers divide
	// the work — the adaptivity property (no static partitioning).
	specs := []WorkerSpec{
		{FailProb: 1.0, MaxFailures: 1},
		{Speed: 1},
		{Speed: 1},
	}
	f := NewFarm(7, specs)
	p := problems.OneMax{N: 16}
	pop := freshPop(p, 100, 8)
	f.EvaluateAll(p, pop)
	st := f.Stats()
	if st.TasksPerWorker[1]+st.TasksPerWorker[2] != 100 {
		t.Fatalf("healthy workers did %d + %d tasks, want 100 total",
			st.TasksPerWorker[1], st.TasksPerWorker[2])
	}
}

func TestMakespanModel(t *testing.T) {
	f := NewFarm(8, []WorkerSpec{{Speed: 1}, {Speed: 2}})
	// Simulate completed work by direct manipulation through EvaluateAll.
	p := problems.OneMax{N: 8}
	pop := freshPop(p, 90, 9)
	f.EvaluateAll(p, pop)
	st := f.Stats()
	total := st.TasksPerWorker[0] + st.TasksPerWorker[1]
	if total != 90 {
		t.Fatalf("total tasks %d", total)
	}
	ms := f.Makespan(1.0)
	// Makespan must be at least total/combined-speed and at most total.
	if ms < 30 || ms > 90 {
		t.Fatalf("makespan %v outside plausible [30,90]", ms)
	}
}

func TestFarmAsEvaluatorInsideGA(t *testing.T) {
	// Transparency: the generational GA runs unchanged on a parallel farm.
	farm := NewFarm(9, Uniform(4))
	e := ga.NewGenerational(ga.Config{
		Problem:   problems.OneMax{N: 48},
		PopSize:   40,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		Evaluator: farm,
		RNG:       rng.New(10),
	})
	res := ga.Run(e, ga.RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(200),
		core.TargetFitness{Target: 48, Dir: core.Maximize},
	}})
	if !res.Solved {
		t.Fatalf("master-slave GA failed onemax: %v", res.BestFitness)
	}
	if farm.Evaluations() != res.Evaluations {
		t.Fatalf("farm evals %d != run evals %d", farm.Evaluations(), res.Evaluations)
	}
}

func TestFarmDeterministicFaultsPerSeed(t *testing.T) {
	// With a single worker, every task lands on its failure stream, so the
	// fault pattern is exactly reproducible per seed.
	run := func() int64 {
		f := NewFarm(42, []WorkerSpec{{FailProb: 0.3}})
		p := problems.OneMax{N: 8}
		pop := freshPop(p, 50, 11)
		f.EvaluateAll(p, pop)
		return f.Stats().Failures
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("FailProb=0.3 produced no failures over 50+ attempts")
	}
	if a != b {
		t.Fatalf("same seed produced different fault patterns: %d vs %d", a, b)
	}
}

func TestNewFarmValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty worker list")
		}
	}()
	NewFarm(1, nil)
}

func TestUniformSpecs(t *testing.T) {
	specs := Uniform(5)
	if len(specs) != 5 {
		t.Fatal("wrong count")
	}
	for _, s := range specs {
		if s.Speed != 1 || s.FailProb != 0 || s.MaxFailures != 0 {
			t.Fatal("uniform spec not nominal")
		}
	}
}

func TestZeroSpeedNormalised(t *testing.T) {
	f := NewFarm(1, []WorkerSpec{{Speed: 0}})
	if f.specs[0].Speed != 1 {
		t.Fatal("zero speed not normalised to 1")
	}
}

// batchCountingProblem is OneMax with a BatchProblem seam and counters
// for both entry points, to pin which path the farm takes.
type batchCountingProblem struct {
	problems.OneMax
	scalar atomic.Int64
	batch  atomic.Int64
}

func (p *batchCountingProblem) Evaluate(g core.Genome) float64 {
	p.scalar.Add(1)
	return p.OneMax.Evaluate(g)
}

func (p *batchCountingProblem) EvaluateBatch(genomes []core.Genome, out []float64) {
	p.batch.Add(1)
	p.OneMax.EvaluateBatch(genomes, out)
}

func TestFarmBatchPathFaultFree(t *testing.T) {
	// Fault-free workers hand their whole slice to EvaluateBatch: one
	// batch call per worker, no scalar calls, identical fitness values.
	p := &batchCountingProblem{OneMax: problems.OneMax{N: 32}}
	f := NewFarm(1, Uniform(4))
	pop := freshPop(p, 40, 3)
	f.EvaluateAll(p, pop)

	if got := p.batch.Load(); got != 4 {
		t.Fatalf("batch calls = %d, want one per worker", got)
	}
	if p.scalar.Load() != 0 {
		t.Fatal("fault-free farm fell back to scalar Evaluate")
	}
	if f.Evaluations() != 40 {
		t.Fatalf("evals = %d, want 40", f.Evaluations())
	}
	for i, ind := range pop.Members {
		want := float64(ind.Genome.(*genome.BitString).OnesCount())
		if !ind.Evaluated || ind.Fitness != want {
			t.Fatalf("member %d: fitness %v, want %v", i, ind.Fitness, want)
		}
	}
}

func TestFarmBatchSkipsFaultyWorkers(t *testing.T) {
	// Workers with FailProb > 0 must stay on the per-task path: their
	// fault draws are part of the pinned reproducible scenarios.
	p := &batchCountingProblem{OneMax: problems.OneMax{N: 16}}
	specs := Uniform(2)
	specs[1].FailProb = 0.2
	f := NewFarm(7, specs)
	pop := freshPop(p, 30, 4)
	f.EvaluateAll(p, pop)

	if p.scalar.Load() == 0 {
		t.Fatal("faulty worker never took the scalar path")
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("member left unevaluated")
		}
	}
}

func TestFarmBatchMatchesScalarFarm(t *testing.T) {
	// The batched farm must produce the same fitness assignment as a farm
	// whose problem has no batch seam — for a core.BatchProblem and for a
	// core.Batcher, whose one instance the workers share concurrently.
	for _, prob := range []core.Problem{problems.OneMax{N: 64}, problems.NewMaxSAT(100, 400, 1),
		problems.NewNKLandscape(100, 4, 1)} {
		batched := freshPop(prob, 50, 5)
		scalar := freshPop(prob, 50, 5)

		NewFarm(1, Uniform(3)).EvaluateAll(prob, batched)
		p := &countingProblem{inner: prob} // wrapper hides the seam
		NewFarm(1, Uniform(3)).EvaluateAll(p, scalar)

		for i := range batched.Members {
			if batched.Members[i].Fitness != scalar.Members[i].Fitness {
				t.Fatalf("%s member %d: batched %v != scalar %v", prob.Name(), i,
					batched.Members[i].Fitness, scalar.Members[i].Fitness)
			}
		}
	}
}

// TestAllocBudget: a warm farm's EvaluateAll allocates nothing, whatever
// the population size. The pending list, the shares, each worker's failed
// list and batch buffers live on the farm, and each worker's goroutine
// runs a func bound once to its index; the bit-sliced batch forms of NK
// and MaxSAT keep their lane tiles on the worker goroutines' stacks. A
// faulty farm, whose failed tasks go round again, is held to the same.
// testing.AllocsPerRun reads the process-wide counter, so the worker
// goroutines' allocations count too.
func TestAllocBudget(t *testing.T) {
	faulty := []WorkerSpec{{Speed: 1, FailProb: 0.2}, {Speed: 2, FailProb: 0.1}, {Speed: 1}}
	for _, tc := range []struct {
		prob  core.Problem
		specs []WorkerSpec
	}{
		{problems.OneMax{N: 100}, Uniform(3)},
		{problems.NewNKLandscape(100, 4, 1), Uniform(3)},
		{problems.NewMaxSAT(100, 400, 1), Uniform(3)},
		{problems.OneMax{N: 100}, faulty},
		{problems.NewNKLandscape(100, 4, 1), faulty},
	} {
		for _, size := range []int{50, 200} {
			f := NewFarm(1, tc.specs)
			pop := freshPop(tc.prob, size, 5)
			if avg := testing.AllocsPerRun(20, func() {
				for _, ind := range pop.Members {
					ind.Evaluated = false
				}
				f.EvaluateAll(tc.prob, pop)
			}); avg != 0 {
				t.Errorf("farm/%s, %d workers, %d members: %.1f allocs per EvaluateAll, want 0", tc.prob.Name(), len(tc.specs), size, avg)
			}
		}
	}
}
