package pga

import (
	"testing"

	"pga/internal/cellular"
	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/p2p"
	"pga/internal/sim"
)

// These tests pin the stop-condition uniformity the shared run loop
// guarantees: every runtime takes one StopCondition, halts at exactly the
// same generation for the same budget, reports the firing condition's
// reason, and records Generations == SolvedAtGen when a target halt ends
// the run. Before internal/engine each model hand-rolled its loop and the
// boundary semantics could drift per model; now they cannot. sim and the
// HGA run other problem classes (multi-objective, multi-fidelity real) and
// are checked on their own; free-running islands, which poll a generation
// cap per deme, are the one exception (DESIGN §3.1).

// stopRuntimes are the runtimes that run a bit-string problem to an
// arbitrary StopCondition.
func stopRuntimes(prob Problem, seed uint64) map[string]func(stop StopCondition) *core.RunStats {
	gaCfg := func(r *RNG) GAConfig {
		return GAConfig{
			Problem:   prob,
			PopSize:   20,
			Crossover: UniformCrossover{},
			Mutator:   BitFlip{},
			RNG:       r,
		}
	}
	return map[string]func(stop StopCondition) *core.RunStats{
		"generational": func(stop StopCondition) *core.RunStats {
			res := Run(NewGenerational(gaCfg(NewRNG(seed))), RunOptions{Stop: stop})
			return &res.RunStats
		},
		"steady-state": func(stop StopCondition) *core.RunStats {
			res := Run(ga.NewSteadyState(gaCfg(NewRNG(seed)), true), RunOptions{Stop: stop})
			return &res.RunStats
		},
		"parallel-generational": func(stop StopCondition) *core.RunStats {
			res := Run(ga.NewParallelGenerational(gaCfg(NewRNG(seed)), 2), RunOptions{Stop: stop})
			return &res.RunStats
		},
		"masterslave-farm": func(stop StopCondition) *core.RunStats {
			cfg := gaCfg(NewRNG(seed))
			cfg.Evaluator = NewFarm(seed, UniformWorkers(3))
			res := Run(NewGenerational(cfg), RunOptions{Stop: stop})
			return &res.RunStats
		},
		"cellular": func(stop StopCondition) *core.RunStats {
			res := Run(cellular.New(cellular.Config{
				Problem:   prob,
				Rows:      5,
				Cols:      5,
				Update:    cellular.LineSweep,
				Crossover: UniformCrossover{},
				Mutator:   BitFlip{},
				RNG:       NewRNG(seed),
			}), RunOptions{Stop: stop})
			return &res.RunStats
		},
		"island-sequential": func(stop StopCondition) *core.RunStats {
			m := NewIslands(IslandConfig{
				Demes:    3,
				Topology: Ring,
				GA: GAConfig{
					Problem:   prob,
					PopSize:   12,
					Crossover: UniformCrossover{},
					Mutator:   BitFlip{},
				},
				Migration: Migration{Interval: 4, Count: 1},
				Seed:      seed,
			})
			res := m.RunSequential(stop, Control{})
			return &res.RunStats
		},
		"island-sync-parallel": func(stop StopCondition) *core.RunStats {
			m := NewIslands(IslandConfig{
				Demes:    3,
				Topology: Ring,
				GA: GAConfig{
					Problem:   prob,
					PopSize:   12,
					Crossover: UniformCrossover{},
					Mutator:   BitFlip{},
				},
				Migration: Migration{Interval: 4, Count: 1, Sync: true},
				Seed:      seed,
			})
			res := m.RunParallel(stop, Control{})
			return &res.RunStats
		},
		"p2p": func(stop StopCondition) *core.RunStats {
			res := p2p.New(p2p.Config{
				Problem: prob,
				Peers:   4,
				NewEngine: func(peer int, r *RNG) Engine {
					return NewGenerational(gaCfg(r))
				},
				Seed: seed,
			}).Run(stop, Control{})
			return &res.RunStats
		},
	}
}

// TestStopUniformityMaxGenerations: with a budget no runtime can solve
// within, every runtime halts at exactly the budget generation with the
// budget's reason.
func TestStopUniformityMaxGenerations(t *testing.T) {
	const gens = 12
	prob := OneMax(400) // unsolvable in 12 generations at these sizes
	for name, run := range stopRuntimes(prob, 11) {
		stats := run(MaxGenerations(gens))
		if stats.Generations != gens {
			t.Errorf("%s: halted at generation %d, want %d", name, stats.Generations, gens)
		}
		if stats.StopReason != "max generations" {
			t.Errorf("%s: StopReason = %q, want max generations", name, stats.StopReason)
		}
		if stats.Solved {
			t.Errorf("%s: reported solved on an unsolvable budget", name)
		}
	}

	if res := sim.Run(sim.Config{
		Problem:  sim.ZDT1{Dim: 6},
		Scenario: sim.S3,
		DemeSize: 12,
		Seed:     11,
	}, MaxGenerations(gens), Control{}); res.Generations != gens || res.StopReason != "max generations" {
		t.Errorf("sim: halted at (%d, %q), want (%d, max generations)",
			res.Generations, res.StopReason, gens)
	}
}

// TestStopUniformityTarget: when a target halt ends the run, every runtime
// reports Solved with the halting generation equal to the solve
// generation and a consistent solve record.
func TestStopUniformityTarget(t *testing.T) {
	prob := OneMax(16) // easily solvable: every runtime reaches the optimum
	for name, run := range stopRuntimes(prob, 13) {
		stats := run(AnyOf{MaxGenerations(2000), Target(prob)})
		if !stats.Solved {
			t.Errorf("%s: failed to solve OneMax(16): best %v", name, stats.BestFitness)
			continue
		}
		if stats.Generations != stats.SolvedAtGen {
			t.Errorf("%s: halted at generation %d but solved at %d",
				name, stats.Generations, stats.SolvedAtGen)
		}
		if stats.SolvedAtEval <= 0 || stats.SolvedAtEval > stats.Evaluations {
			t.Errorf("%s: SolvedAtEval = %d outside (0, %d]",
				name, stats.SolvedAtEval, stats.Evaluations)
		}
		if stats.StopReason != "target fitness reached" {
			t.Errorf("%s: StopReason = %q, want target fitness reached", name, stats.StopReason)
		}
	}
}

// TestStopUniformityAnyOf: a composite condition reports the reason of
// the child that actually fired, identically across runtimes.
func TestStopUniformityAnyOf(t *testing.T) {
	const gens = 8
	prob := OneMax(400)
	for name, run := range stopRuntimes(prob, 17) {
		stats := run(AnyOf{Target(prob), MaxGenerations(gens)})
		if stats.Generations != gens || stats.StopReason != "max generations" {
			t.Errorf("%s: AnyOf halt = (%d, %q), want (%d, max generations)",
				name, stats.Generations, stats.StopReason, gens)
		}
	}
}
