package cluster

// This file contains the analytic makespan models used by the modelled
// wall-clock experiments (E2, E7, E12, A9). They are deliberately simple,
// deterministic functions of the run profile measured on the real engines
// plus the virtual machine-room description; EXPERIMENTS.md labels every
// number derived from them as "modelled".

import "pga/internal/rng"

// IslandProfile is the computational profile of an island-model run, as
// measured on the real engines.
type IslandProfile struct {
	// Generations is the number of island generations each deme ran.
	Generations int
	// EvalsPerGen is the fitness evaluations per deme per generation.
	EvalsPerGen float64
	// EvalCost is the cost of one evaluation in seconds on a speed-1 node.
	EvalCost float64
	// MigrationInterval is the generations between exchanges (0 = never).
	MigrationInterval int
	// MessageBytes is the size of one migrant batch on the wire.
	MessageBytes float64
	// Sync selects barriered generations; async demes never wait.
	Sync bool
}

// genCost returns deme i's per-generation compute time.
func genCost(nodes []NodeSpec, p IslandProfile, i int) float64 {
	return p.EvalsPerGen * p.EvalCost / nodes[i].Speed
}

// IslandMakespan returns the modelled wall-clock of running the profile on
// the given nodes (one deme per node) over the given link.
//
// Sync mode: every generation ends with a barrier over the nodes still
// alive, and migration epochs add one message transfer to the barrier.
// Async mode: each surviving deme finishes independently; makespan is the
// slowest survivor (migration sends are non-blocking and do not extend the
// critical path).
func IslandMakespan(nodes []NodeSpec, link LinkSpec, p IslandProfile) float64 {
	if len(nodes) == 0 || p.Generations == 0 {
		return 0
	}
	if p.Sync {
		t := 0.0
		for g := 1; g <= p.Generations; g++ {
			slowest := 0.0
			for i := range nodes {
				if nodes[i].CrashAt != 0 && t >= nodes[i].CrashAt {
					continue // dead deme no longer participates in the barrier
				}
				if c := genCost(nodes, p, i); c > slowest {
					slowest = c
				}
			}
			t += slowest
			if p.MigrationInterval > 0 && g%p.MigrationInterval == 0 {
				t += link.TransferTime(p.MessageBytes)
			}
		}
		return t
	}
	// Async: per-deme independent completion.
	makespan := 0.0
	for i := range nodes {
		finish := float64(p.Generations) * genCost(nodes, p, i)
		if nodes[i].CrashAt != 0 && finish >= nodes[i].CrashAt {
			continue // deme died; it never finishes and drops out
		}
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}

// IslandMakespanJittered is IslandMakespan for non-dedicated machines:
// every node's per-generation compute cost fluctuates by a uniform factor
// in [1, 1+jitter] (background load on shared workstations — the setting
// of Alba, Nebro & Troya 2002). With static speeds sync and async
// makespans coincide; under fluctuation the synchronous barrier pays the
// per-generation *maximum* across nodes (straggler tax) while each
// asynchronous node pays only its own sum. Deterministic per seed.
func IslandMakespanJittered(nodes []NodeSpec, link LinkSpec, p IslandProfile, jitter float64, seed uint64) float64 {
	if len(nodes) == 0 || p.Generations == 0 {
		return 0
	}
	r := rng.New(seed)
	finish := make([]float64, len(nodes))
	syncT := 0.0
	for g := 1; g <= p.Generations; g++ {
		slowest := 0.0
		for i := range nodes {
			c := genCost(nodes, p, i) * (1 + jitter*r.Float64())
			finish[i] += c
			if c > slowest {
				slowest = c
			}
		}
		syncT += slowest
		if p.MigrationInterval > 0 && g%p.MigrationInterval == 0 {
			syncT += link.TransferTime(p.MessageBytes)
		}
	}
	if p.Sync {
		return syncT
	}
	makespan := 0.0
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// MasterSlaveProfile is the computational profile of a master–slave run.
type MasterSlaveProfile struct {
	// Generations is the number of generations evaluated.
	Generations int
	// TasksPerGen is the number of fitness evaluations per generation.
	TasksPerGen int
	// EvalCost is the cost of one evaluation in seconds on a speed-1 node.
	EvalCost float64
	// TaskBytes is the wire size of one task+result pair.
	TaskBytes float64
}

// MasterSlaveMakespan returns the modelled wall-clock of a master–slave
// run on the given worker nodes: each generation the master scatters tasks
// proportionally to the speeds of the workers alive at that time, waits
// for the slowest, and pays one scatter+gather transfer. Work assigned to
// a worker that crashes mid-generation is redone on the survivors within
// the same generation (the Gagné fault-handling model).
func MasterSlaveMakespan(workers []NodeSpec, link LinkSpec, p MasterSlaveProfile) float64 {
	if len(workers) == 0 || p.Generations == 0 {
		return 0
	}
	t := 0.0
	for g := 0; g < p.Generations; g++ {
		remaining := float64(p.TasksPerGen)
		// Retry rounds within the generation until all tasks done.
		for remaining > 0 {
			var alive []int
			totalSpeed := 0.0
			for i := range workers {
				if workers[i].CrashAt == 0 || t < workers[i].CrashAt {
					alive = append(alive, i)
					totalSpeed += workers[i].Speed
				}
			}
			if len(alive) == 0 {
				// Master evaluates the rest itself at speed 1.
				t += remaining * p.EvalCost
				remaining = 0
				break
			}
			// Scatter + gather communication.
			t += 2 * link.TransferTime(p.TaskBytes*remaining/float64(len(alive)))
			roundTime := remaining * p.EvalCost / totalSpeed
			// Does any worker crash during this round?
			crashT := 0.0
			crashed := false
			for _, i := range alive {
				if workers[i].CrashAt != 0 && t+roundTime > workers[i].CrashAt && workers[i].CrashAt > t {
					if !crashed || workers[i].CrashAt < crashT {
						crashT, crashed = workers[i].CrashAt, true
					}
				}
			}
			if !crashed {
				t += roundTime
				remaining = 0
				break
			}
			// Progress until the first crash, then redistribute what's left.
			elapsed := crashT - t
			doneWork := elapsed * totalSpeed / p.EvalCost
			if doneWork > remaining {
				doneWork = remaining
			}
			remaining -= doneWork
			t = crashT
		}
	}
	return t
}

// Speedup returns sequential/parallel time (the classic metric of §1.2's
// "gains from running genetic algorithms in the parallel way").
func Speedup(sequential, parallel float64) float64 {
	if parallel <= 0 {
		return 0
	}
	return sequential / parallel
}

// Efficiency returns speedup divided by processor count.
func Efficiency(speedup float64, processors int) float64 {
	if processors <= 0 {
		return 0
	}
	return speedup / float64(processors)
}
