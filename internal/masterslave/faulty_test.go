package masterslave

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// faultyRecord is what a seeded faulty farm must reproduce: its counters
// per worker and in total, and every fitness value it wrote.
type faultyRecord struct {
	attempts, failures, redispatched, evaluations int64
	tasks                                         []int64
	failCount                                     []int
	dead                                          int
	fitness                                       uint64 // FNV-1a of every generation's fitness bits
}

func (r faultyRecord) String() string {
	return fmt.Sprintf("{attempts: %d, failures: %d, redispatched: %d, evaluations: %d, tasks: %#v, failCount: %#v, dead: %d, fitness: %#x}",
		r.attempts, r.failures, r.redispatched, r.evaluations, r.tasks, r.failCount, r.dead, r.fitness)
}

// runFaultyFarm drives a generational GA for gens generations on a farm
// of the given workers and records what faultyRecord holds.
func runFaultyFarm(seed uint64, specs []WorkerSpec, prob core.Problem, gens int) faultyRecord {
	farm := NewFarm(seed, specs)
	e := ga.NewGenerational(ga.Config{
		Problem:   prob,
		PopSize:   30,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		Evaluator: farm,
		RNG:       rng.New(seed + 1),
	})
	h := fnv.New64a()
	var b [8]byte
	for g := 0; g < gens; g++ {
		e.Step()
		for _, ind := range e.Population().Members {
			u := math.Float64bits(ind.Fitness)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	st := farm.Stats()
	return faultyRecord{
		attempts: st.Attempts, failures: st.Failures, redispatched: st.Redispatched,
		evaluations: st.Evaluations, tasks: st.TasksPerWorker,
		failCount: append([]int(nil), farm.failCount...), dead: st.DeadWorkers,
		fitness: h.Sum64(),
	}
}

// TestFaultyFarmMatchesRecorded replays seeded faulty farms against the
// counters and fitness values recorded from the farm that allocated its
// pending, failed and per-worker slices on every call. Its pending and
// failed lists, shares and batch buffers are now reused from round to
// round and call to call; a slice that aliased another worker's, or a
// round that read a stale failed list, moves one of these numbers. The
// three farms cover transient failures, workers dying mid-run (leaving
// a fault-free worker on the batch path beside faulty scalar ones) and
// every worker dying, so the master finishes the work.
func TestFaultyFarmMatchesRecorded(t *testing.T) {
	cases := []struct {
		name  string
		seed  uint64
		specs []WorkerSpec
		prob  core.Problem
		want  string
	}{
		{"transient", 11, []WorkerSpec{
			{Speed: 1, FailProb: 0.2},
			{Speed: 2, FailProb: 0.1},
			{Speed: 0.5, FailProb: 0.3},
		}, problems.OneMax{N: 64},
			"{attempts: 1417, failures: 227, redispatched: 227, evaluations: 1190, tasks: []int64{314, 708, 168}, failCount: []int{64, 84, 79}, dead: 0, fitness: 0xf69e846aa93e0841}"},
		{"dying+batch", 12, []WorkerSpec{
			{Speed: 1, FailProb: 0.2, MaxFailures: 6},
			{Speed: 2, FailProb: 0.1, MaxFailures: 40},
			{Speed: 0.5, FailProb: 0.3, MaxFailures: 3},
			{Speed: 1},
		}, problems.NewNKLandscape(64, 4, 1),
			"{attempts: 1239, failures: 49, redispatched: 66, evaluations: 1190, tasks: []int64{9, 359, 15, 807}, failCount: []int{6, 40, 3, 0}, dead: 3, fitness: 0x4067fb56ebee08c6}"},
		{"all-dead", 13, []WorkerSpec{
			{Speed: 1, FailProb: 0.5, MaxFailures: 4},
			{Speed: 1.5, FailProb: 0.4, MaxFailures: 5},
		}, problems.OneMax{N: 64},
			"{attempts: 1199, failures: 9, redispatched: 13, evaluations: 1190, tasks: []int64{10, 14}, failCount: []int{4, 5}, dead: 2, fitness: 0x57c66204189f8ae8}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFaultyFarm(tc.seed, tc.specs, tc.prob, 40).String()
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}
