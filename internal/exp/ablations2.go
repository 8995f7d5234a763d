package exp

import (
	"io"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/spec"
	"pga/internal/stats"
)

func init() {
	registerSweep(Experiment{
		ID:     "A05",
		Title:  "ablation: the population sizing problem (total size at fixed structure)",
		Source: "Konfršt & Lažanský 2002 [35] (survey refs): population sizing in (P)GAs; Cantú-Paz sizing theory",
	}, spec.RunOpts{}, reduceA05, "A05.json")
	register(Experiment{
		ID:     "A06",
		Title:  "ablation: diversity preservation — panmictic vs islands vs cellular",
		Source: "survey §1.2: 'following various diversified search paths' as a PGA gain",
		Run:    runA06,
	})
}

// reduceA05 prints the total-population sweep of an 8-island ring on a
// deceptive problem: undersized populations can't supply the building
// blocks (low hit rate), oversized ones waste evaluations — the sizing
// problem the survey's author studied in [35, 36].
func reduceA05(w io.Writer, gs []grid) {
	fprintf(w, "8-island ring on %s, %d runs/row; per-deme size sweep\n\n", problemName(gs[0][0].spec), gs[0].runs())
	fprintf(w, "%-12s %-9s %-14s %-14s\n", "total pop", "hit-rate", "med-evals", "mean-best")
	for _, r := range gs[0] {
		hit, final := r.outcome()
		fprintf(w, "8 × %-8d %-9s %-14.0f %-14.2f\n", r.spec.Engine.Pop, rate(hit), medianEffort(hit), final.Mean)
	}
	fprintf(w, "\nshape check: hit rate rises steeply with population size until the demes can\n")
	fprintf(w, "hold the building blocks, then flattens while effort keeps growing — the\n")
	fprintf(w, "accurate-sizing sweet spot of Cantú-Paz's theory and Konfršt's experiments.\n")
}

// runA06 traces population diversity over generations for a panmictic GA,
// an island model and a cellular GA of equal total size on the same
// problem.
func runA06(w io.Writer, quick bool) {
	gens := scale(quick, 80, 30)
	bits := scale(quick, 64, 32)
	prob := spec.ProblemSpec{Name: "trap", Size: bits}
	inst, _ := prob.Instance(0)
	seed := uint64(9)
	uniform := func() *spec.OperatorSpec { return &spec.OperatorSpec{Name: "uniform"} }
	bitflip := func() *spec.OperatorSpec { return &spec.OperatorSpec{Name: "bitflip"} }

	type tracer struct {
		name   string
		sample func() []float64 // diversity per generation
	}

	panmictic := func() []float64 {
		e := mustBuild(spec.RunSpec{
			Model:   spec.ModelGenerational,
			Problem: prob,
			Engine:  spec.EngineSpec{Pop: 64, Crossover: uniform(), Mutator: bitflip()},
			Seed:    seed,
		}).Engine
		var ds []float64
		for g := 0; g < gens; g++ {
			ds = append(ds, stats.Diversity(e.Population()))
			e.Step()
		}
		return ds
	}
	islands := func() []float64 {
		m := mustBuild(spec.RunSpec{
			Model:   spec.ModelIslands,
			Problem: prob,
			Engine:  demeEngineSpec(16),
			Islands: &spec.IslandSpec{Demes: 4, Migration: migrationEvery(10, 1)},
			Seed:    seed,
		}).Islands
		var ds []float64
		// Advance one generation per RunSequential call so diversity can be
		// sampled between generations (each call runs exactly one step).
		for g := 0; g < gens; g++ {
			all := core.NewPopulation(64)
			for _, e := range m.Engines() {
				all.Members = append(all.Members, e.Population().Members...)
			}
			ds = append(ds, stats.Diversity(all))
			m.RunSequential(core.MaxGenerations(1), engine.Control{})
		}
		return ds
	}
	cell := func() []float64 {
		e := mustBuild(spec.RunSpec{
			Model:   spec.ModelCellular,
			Problem: prob,
			Engine:  spec.EngineSpec{Grid: &spec.GridSpec{Rows: 8, Cols: 8}, Crossover: uniform(), Mutator: bitflip()},
			Seed:    seed,
		}).Engine
		var ds []float64
		for g := 0; g < gens; g++ {
			ds = append(ds, stats.Diversity(e.Population()))
			e.Step()
		}
		return ds
	}

	fprintf(w, "population diversity over %d generations, 64 individuals total, %s\n\n", gens, inst.Name())
	halfLife := func(ds []float64) int {
		for g, d := range ds {
			if d < ds[0]/2 {
				return g
			}
		}
		return len(ds)
	}
	for _, tr := range []tracer{
		{"panmictic 1×64", panmictic},
		{"islands 4×16", islands},
		{"cellular 8×8", cell},
	} {
		ds := tr.sample()
		fprintf(w, "%-16s start=%.3f end=%.3f half-life=%-4d %s\n",
			tr.name, ds[0], ds[len(ds)-1], halfLife(ds), stats.Sparkline(stats.Downsample(ds, 50)))
	}
	fprintf(w, "\nshape check: the panmictic population decays fastest and ends with the least\n")
	fprintf(w, "diversity; the islands' separated gene pools and the cellular grid's local\n")
	fprintf(w, "mating both finish well above it — the 'diversified search paths' gain of §1.2.\n")
}
