package pga

// The benchmark harness: one testing.B benchmark per experiment in
// DESIGN.md's index (each runs the experiment's quick configuration and
// reports its wall time), plus micro-benchmarks of the engines and the
// parallel models. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The full-size experiment tables are produced by cmd/pgabench (see
// EXPERIMENTS.md for recorded output).

import (
	"io"
	"testing"

	"pga/internal/core"
	"pga/internal/exp"
	"pga/internal/problems"
)

// benchExperiment runs the named experiment in quick mode b.N times.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, true)
	}
}

func BenchmarkE01Table1(b *testing.B)         { benchExperiment(b, "E01") }
func BenchmarkE02Speedup(b *testing.B)        { benchExperiment(b, "E02") }
func BenchmarkE03Migration(b *testing.B)      { benchExperiment(b, "E03") }
func BenchmarkE04SyncAsync(b *testing.B)      { benchExperiment(b, "E04") }
func BenchmarkE05Schemes(b *testing.B)        { benchExperiment(b, "E05") }
func BenchmarkE06Takeover(b *testing.B)       { benchExperiment(b, "E06") }
func BenchmarkE07FaultTolerance(b *testing.B) { benchExperiment(b, "E07") }
func BenchmarkE08HGA(b *testing.B)            { benchExperiment(b, "E08") }
func BenchmarkE09SIM(b *testing.B)            { benchExperiment(b, "E09") }
func BenchmarkE10CantuPaz(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Punctuated(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Scalability(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Applications(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14Topology(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15Supervision(b *testing.B)    { benchExperiment(b, "E15") }

func BenchmarkA01Elitism(b *testing.B)            { benchExperiment(b, "A01") }
func BenchmarkA02GrayEncoding(b *testing.B)       { benchExperiment(b, "A02") }
func BenchmarkA03MigrantIntegration(b *testing.B) { benchExperiment(b, "A03") }
func BenchmarkA04AsyncBuffer(b *testing.B)        { benchExperiment(b, "A04") }
func BenchmarkA05PopulationSizing(b *testing.B)   { benchExperiment(b, "A05") }
func BenchmarkA06Diversity(b *testing.B)          { benchExperiment(b, "A06") }
func BenchmarkA07P2PChurn(b *testing.B)           { benchExperiment(b, "A07") }
func BenchmarkA08SelectionPressure(b *testing.B)  { benchExperiment(b, "A08") }
func BenchmarkA09Heterogeneous(b *testing.B)      { benchExperiment(b, "A09") }

// ---- micro-benchmarks of the engines and models ----

// BenchmarkGenerationalStep measures one generation of the sequential
// baseline (pop 100, onemax 128).
func BenchmarkGenerationalStep(b *testing.B) {
	e := NewGenerational(GAConfig{
		Problem:   OneMax(128),
		PopSize:   100,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSteadyStateStep measures PopSize births of the steady-state
// engine.
func BenchmarkSteadyStateStep(b *testing.B) {
	e := NewSteadyState(GAConfig{
		Problem:   OneMax(128),
		PopSize:   100,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCellularSweep measures one sweep of a 10×10 cellular grid.
func BenchmarkCellularSweep(b *testing.B) {
	e := NewCellular(CellularConfig{
		Problem:   OneMax(128),
		Rows:      10,
		Cols:      10,
		Crossover: UniformCrossover{},
		Mutator:   BitFlip{},
		RNG:       NewRNG(1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkIslandGeneration measures one synchronized island generation
// (8 demes × 25).
func BenchmarkIslandGeneration(b *testing.B) {
	m := NewIslands(IslandConfig{
		Demes:    8,
		Topology: Ring,
		GA: GAConfig{
			Problem:   OneMax(128),
			PopSize:   25,
			Crossover: UniformCrossover{},
			Mutator:   BitFlip{},
		},
		Migration: Migration{Interval: 10, Count: 2},
		Seed:      1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunSequential(MaxGenerations(1), Control{})
	}
}

// BenchmarkFarmEvaluateAll measures one parallel evaluation of 100
// individuals over 4 workers.
func BenchmarkFarmEvaluateAll(b *testing.B) {
	prob := OneMax(128)
	farm := NewFarm(1, UniformWorkers(4))
	r := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pop := freshPopulation(prob, 100, r)
		b.StartTimer()
		farm.EvaluateAll(prob, pop)
	}
}

// freshPopulation builds an unevaluated population for benchmarks.
func freshPopulation(p Problem, n int, r *RNG) *Population {
	pop := &Population{}
	for i := 0; i < n; i++ {
		pop.Members = append(pop.Members, &Individual{Genome: p.NewGenome(r)})
	}
	return pop
}

// BenchmarkGenerationalStepWordOps is BenchmarkGenerationalStep with the
// word-granular operators (KPointWordCrossover + BlockFlipMutation): the
// packed-layout fast path the BENCH_8 report compares against the
// bit-wise operator step.
func BenchmarkGenerationalStepWordOps(b *testing.B) {
	e := NewGenerational(GAConfig{
		Problem:   OneMax(128),
		PopSize:   100,
		Crossover: KPointWordCrossover{K: 2},
		Mutator:   BlockFlipMutation{},
		RNG:       NewRNG(1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSteadyStateStepWordOps is the steady-state counterpart with
// UniformWordCrossover.
func BenchmarkSteadyStateStepWordOps(b *testing.B) {
	e := NewSteadyState(GAConfig{
		Problem:   OneMax(128),
		PopSize:   100,
		Crossover: UniformWordCrossover{},
		Mutator:   BlockFlipMutation{},
		RNG:       NewRNG(1),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkBatchEvaluate measures the batched evaluation seam against
// the scalar path on the same pending population (OneMax popcount).
func BenchmarkBatchEvaluate(b *testing.B) {
	prob := OneMax(512)
	r := NewRNG(1)
	pop := freshPopulation(prob, 256, r)
	invalidate := func() {
		for _, ind := range pop.Members {
			ind.Evaluated = false
		}
	}
	b.Run("batch", func(b *testing.B) {
		var e core.SerialEvaluator
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invalidate()
			e.EvaluateAll(prob, pop)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invalidate()
			for _, ind := range pop.Members {
				if !ind.Evaluated {
					ind.Fitness = prob.Evaluate(ind.Genome)
					ind.Evaluated = true
				}
			}
		}
	})
}

// BenchmarkEvaluate measures the compiled fitness kernels on the pending
// set of a 200-individual generation (199 genomes of 256 bits, the
// evalheavy-gen and wire-ring2 shape): Evaluate genome by genome and,
// where the problem has a batch form, one EvaluateBatch call. For maxsat
// that is the flat scalar kernel against the bit-sliced one (64 genomes
// per word), for nk the flat-table scalar kernel against the lane kernel
// (eight genomes per locus load).
func BenchmarkEvaluate(b *testing.B) {
	for _, key := range []string{"maxsat", "nk"} {
		spec, err := problems.Lookup(key)
		if err != nil {
			b.Fatal(err)
		}
		prob := spec.Make(256, 1)
		r := NewRNG(1)
		genomes := make([]core.Genome, 199)
		for i := range genomes {
			genomes[i] = prob.NewGenome(r)
		}
		out := make([]float64, len(genomes))
		perGenome := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(genomes)), "ns/genome")
		}
		b.Run(key+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, g := range genomes {
					out[j] = prob.Evaluate(g)
				}
			}
			perGenome(b)
		})
		batch, ok := core.BatchOf(prob)
		if !ok {
			continue
		}
		b.Run(key+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch.EvaluateBatch(genomes, out)
			}
			perGenome(b)
		})
	}
}
