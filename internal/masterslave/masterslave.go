// Package masterslave implements the global (master–slave, centralized)
// parallel GA model: a single panmictic population whose fitness
// evaluations are farmed out to parallel workers.
//
// Gagné, Parizeau & Dubreuil (2003) — reviewed in §2 of the survey —
// argued this classic model beats islands on Beowulfs and heterogeneous
// workstation networks when the computing system offers *transparency,
// robustness and adaptivity*, and extended it to tolerate the *hard
// failures* of real networks. This package reproduces those three
// properties:
//
//   - transparency: the Farm is a drop-in core.Evaluator; the GA engine
//     does not know evaluations run in parallel;
//   - robustness: workers can fail per task and die permanently; failed
//     tasks are re-dispatched, and if every worker dies the master
//     evaluates the remainder itself, so EvaluateAll always completes;
//   - adaptivity: work is self-scheduled from a shared queue, so faster
//     workers automatically take more tasks (no static partitioning).
package masterslave

import (
	"sync"
	"sync/atomic"

	"pga/internal/core"
	"pga/internal/rng"
)

// WorkerSpec configures one slave.
type WorkerSpec struct {
	// Speed is the worker's relative throughput (1.0 = nominal); it only
	// affects the modelled makespan, not real execution.
	Speed float64
	// FailProb is the probability that any single task attempt fails on
	// this worker (a transient or fatal fault).
	FailProb float64
	// MaxFailures is the number of failures after which the worker dies
	// permanently (a hard failure); 0 means the worker never dies.
	MaxFailures int
}

// Uniform returns n identical fault-free workers of nominal speed.
func Uniform(n int) []WorkerSpec {
	specs := make([]WorkerSpec, n)
	for i := range specs {
		specs[i] = WorkerSpec{Speed: 1}
	}
	return specs
}

// Farm is a parallel fitness-evaluation farm implementing core.Evaluator.
type Farm struct {
	specs []WorkerSpec
	rngs  []*rng.Source

	evals    atomic.Int64
	attempts atomic.Int64
	failures atomic.Int64
	redisp   atomic.Int64

	mu        sync.Mutex
	tasksDone []int64 // per-worker successful tasks
	failCount []int   // per-worker failures so far
	dead      []bool
}

var _ core.Evaluator = (*Farm)(nil)

// NewFarm creates a farm with the given workers. Failure draws come from
// per-worker streams split from seed, so fault scenarios are reproducible.
func NewFarm(seed uint64, specs []WorkerSpec) *Farm {
	if len(specs) == 0 {
		panic("masterslave: at least one worker required")
	}
	master := rng.New(seed)
	f := &Farm{
		specs:     specs,
		rngs:      master.SplitN(len(specs)),
		tasksDone: make([]int64, len(specs)),
		failCount: make([]int, len(specs)),
		dead:      make([]bool, len(specs)),
	}
	for i, s := range specs {
		if s.Speed <= 0 {
			f.specs[i].Speed = 1
		}
	}
	return f
}

// Workers returns the number of configured workers.
func (f *Farm) Workers() int { return len(f.specs) }

// Evaluations implements core.Evaluator (successful evaluations only).
func (f *Farm) Evaluations() int64 { return f.evals.Load() }

// Stats is a snapshot of the farm's fault-tolerance counters.
type Stats struct {
	// Evaluations is the number of successful fitness evaluations.
	Evaluations int64
	// Attempts counts every task attempt including failed ones.
	Attempts int64
	// Failures counts failed attempts.
	Failures int64
	// Redispatched counts tasks that had to be re-queued after a failure.
	Redispatched int64
	// TasksPerWorker is each worker's successful task count.
	TasksPerWorker []int64
	// DeadWorkers is the number of permanently failed workers.
	DeadWorkers int
}

// Stats returns a snapshot of the farm counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	tpw := append([]int64(nil), f.tasksDone...)
	deadN := 0
	for _, d := range f.dead {
		if d {
			deadN++
		}
	}
	return Stats{
		Evaluations:    f.evals.Load(),
		Attempts:       f.attempts.Load(),
		Failures:       f.failures.Load(),
		Redispatched:   f.redisp.Load(),
		TasksPerWorker: tpw,
		DeadWorkers:    deadN,
	}
}

// Makespan returns the modelled wall-clock of the farm's work so far,
// assuming each successful task costs baseCost time units on a
// nominal-speed worker: the slowest worker's share dominates. This is how
// the fault-tolerance experiment reports "completion time" on a machine
// whose real core count cannot exhibit parallel speedup.
func (f *Farm) Makespan(baseCost float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	max := 0.0
	for i, n := range f.tasksDone {
		t := float64(n) * baseCost / f.specs[i].Speed
		if t > max {
			max = t
		}
	}
	return max
}

// aliveWorkers returns the indices of workers still alive.
func (f *Farm) aliveWorkers() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for i, d := range f.dead {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// shares splits n tasks across the alive workers proportionally to their
// speeds (the master's adaptive load balancing); remainders go to the
// fastest workers first.
func (f *Farm) shares(n int, alive []int) []int {
	total := 0.0
	for _, w := range alive {
		total += f.specs[w].Speed
	}
	out := make([]int, len(alive))
	assigned := 0
	for k, w := range alive {
		out[k] = int(float64(n) * f.specs[w].Speed / total)
		assigned += out[k]
	}
	// Distribute the remainder in descending speed order.
	for assigned < n {
		best := 0
		for k := 1; k < len(alive); k++ {
			if f.specs[alive[k]].Speed > f.specs[alive[best]].Speed {
				best = k
			}
		}
		// Rotate the remainder across workers starting from the fastest.
		out[(best+assigned)%len(alive)]++
		assigned++
	}
	return out
}

// EvaluateAll implements core.Evaluator: each round it partitions the
// pending tasks across the alive workers proportionally to their speeds,
// runs the workers in parallel, re-queues failed tasks, and falls back to
// master-side evaluation if every worker has died. Task→worker assignment
// is deterministic, so fault scenarios are reproducible per seed.
func (f *Farm) EvaluateAll(p core.Problem, pop *core.Population) {
	pending := make([]int, 0, pop.Len())
	for i, ind := range pop.Members {
		if !ind.Evaluated {
			pending = append(pending, i)
		}
	}

	for len(pending) > 0 {
		alive := f.aliveWorkers()
		if len(alive) == 0 {
			// Robustness guarantee: the master itself finishes the job.
			for _, idx := range pending {
				ind := pop.Members[idx]
				ind.Fitness = p.Evaluate(ind.Genome)
				ind.Evaluated = true
				f.evals.Add(1)
				f.attempts.Add(1)
			}
			return
		}

		share := f.shares(len(pending), alive)
		failed := make([][]int, len(alive))
		var wg sync.WaitGroup
		off := 0
		for k, w := range alive {
			slice := pending[off : off+share[k]]
			off += share[k]
			wg.Add(1)
			go func(k, w int, slice []int) {
				defer wg.Done()
				failed[k] = f.worker(w, p, pop, slice)
			}(k, w, slice)
		}
		wg.Wait()

		pending = pending[:0]
		for _, fs := range failed {
			pending = append(pending, fs...)
			f.redisp.Add(int64(len(fs)))
		}
	}
}

// worker attempts every task in its slice, writing successful fitness
// values directly into the population (tasks are disjoint across workers).
// It returns the indices that failed. A worker that dies mid-slice reports
// the rest of its slice as failed without attempting it.
func (f *Farm) worker(w int, p core.Problem, pop *core.Population, slice []int) []int {
	spec := f.specs[w]
	r := f.rngs[w]
	// Fault-free workers draw nothing from their RNG stream, so a batch
	// problem can evaluate the whole slice in one call without perturbing
	// the reproducible fault scenarios of faulty configurations.
	if spec.FailProb == 0 {
		if bp, ok := core.BatchOf(p); ok {
			return f.workerBatch(w, bp, pop, slice)
		}
	}
	var failed []int
	for _, idx := range slice {
		f.mu.Lock()
		isDead := f.dead[w]
		f.mu.Unlock()
		if isDead {
			failed = append(failed, idx)
			continue
		}
		f.attempts.Add(1)
		if spec.FailProb > 0 && r.Chance(spec.FailProb) {
			f.failures.Add(1)
			f.mu.Lock()
			f.failCount[w]++
			if spec.MaxFailures > 0 && f.failCount[w] >= spec.MaxFailures {
				f.dead[w] = true
			}
			f.mu.Unlock()
			failed = append(failed, idx)
			continue
		}
		ind := pop.Members[idx]
		ind.Fitness = p.Evaluate(ind.Genome)
		ind.Evaluated = true
		f.evals.Add(1)
		f.mu.Lock()
		f.tasksDone[w]++
		f.mu.Unlock()
	}
	return failed
}

// workerBatch evaluates a fault-free worker's whole slice with one
// EvaluateBatch call (per-genome results are bit-identical to Evaluate
// by the BatchProblem contract, so the farm's output is unchanged).
func (f *Farm) workerBatch(w int, bp core.BatchProblem, pop *core.Population, slice []int) []int {
	if len(slice) == 0 {
		return nil
	}
	f.mu.Lock()
	isDead := f.dead[w]
	f.mu.Unlock()
	if isDead {
		// Mirror worker's per-task dead check: report the slice failed.
		return slice
	}
	genomes := make([]core.Genome, len(slice))
	out := make([]float64, len(slice))
	for k, idx := range slice {
		genomes[k] = pop.Members[idx].Genome
	}
	bp.EvaluateBatch(genomes, out)
	for k, idx := range slice {
		ind := pop.Members[idx]
		ind.Fitness = out[k]
		ind.Evaluated = true
	}
	n := int64(len(slice))
	f.attempts.Add(n)
	f.evals.Add(n)
	f.mu.Lock()
	f.tasksDone[w] += n
	f.mu.Unlock()
	return nil
}
