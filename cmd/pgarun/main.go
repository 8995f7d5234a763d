// Command pgarun runs one parallel-GA configuration on one benchmark
// problem and prints progress and the final result — the library's
// command-line front door.
//
// The flags are a thin builder over the declarative run-spec layer
// (internal/spec): every flag combination assembles a RunSpec and runs
// it through the same Build path a JSON config file uses. -config runs
// a spec document instead — a single run, or a sweep expanding a base
// spec over parameter axes into a deterministic run matrix.
//
// Usage examples:
//
//	pgarun -problem onemax -size 128 -model islands -demes 8
//	pgarun -problem rastrigin -size 10 -model sequential -gens 500
//	pgarun -problem trap -size 48 -model cellular -rows 10 -cols 10
//	pgarun -problem onemax -size 64 -model masterslave -workers 8
//	pgarun -problem sphere -size 8 -model hga -cost 3000
//	pgarun -problem zdt1 -size 10 -model sim -scenario 4
//	pgarun -problem onemax -size 64 -model islands -async -resilience default
//	pgarun -config examples/sweeps/onemax-demes.json -out results.json
//	pgarun -config examples/sweeps/onemax-demes.json -validate
//	pgarun -config examples/sweeps/schemes.json -out r.json -cpuprofile cpu.pprof
//	pgarun -list
//
// -cpuprofile FILE and -trace FILE write the Go runtime's CPU profile
// (go tool pprof) and execution trace (go tool trace) of the run; they
// change nothing the run computes.
//
// Ctrl-C (SIGINT) cancels the run's context: the run stops within one
// generation, the partial report — or, for a sweep, the prefix of finished
// runs — is still printed or written to -out, and pgarun exits 130. A
// second Ctrl-C kills the process. Profiles are complete on both exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pga/internal/core"
	"pga/internal/problems"
	"pga/internal/prof"
	"pga/internal/spec"
)

func main() { os.Exit(run()) }

// run is main returning its exit status, so that the profiles are
// stopped and flushed on every path that ran anything.
func run() (status int) {
	problem := flag.String("problem", "onemax", "problem key (see -list; zdt1/schaffer for -model sim)")
	size := flag.Int("size", 64, "problem size (bits / dimensions / items)")
	model := flag.String("model", "islands", "sequential | steadystate | parallel | islands | cellular | masterslave | p2p | hga | sim")
	demes := flag.Int("demes", 8, "islands: deme count")
	pop := flag.Int("pop", 50, "population size (per deme for islands)")
	gens := flag.Int("gens", 300, "maximum generations")
	interval := flag.Int("interval", 10, "islands: migration interval")
	migrants := flag.Int("migrants", 2, "islands: migrants per exchange")
	topo := flag.String("topology", "ring", "islands: ring | biring | star | complete | hypercube | isolated | random")
	async := flag.Bool("async", false, "islands: asynchronous migration (goroutine mode)")
	resilience := flag.String("resilience", "", "islands: supervision preset: none | default | eager (implies goroutine mode)")
	rows := flag.Int("rows", 10, "cellular: grid rows")
	cols := flag.Int("cols", 10, "cellular: grid cols")
	workers := flag.Int("workers", 4, "masterslave/parallel: worker count")
	peers := flag.Int("peers", 16, "p2p: peer count")
	churn := flag.Float64("churn", 0, "p2p: per-generation leave probability")
	cost := flag.Float64("cost", 2000, "hga: precise-evaluation cost budget")
	scenario := flag.Int("scenario", 1, "sim: scenario number 1-7")
	seed := flag.Uint64("seed", 1, "random seed")
	configPath := flag.String("config", "", "run a spec or sweep JSON document instead of flags")
	validate := flag.Bool("validate", false, "validate the spec/config and exit without running")
	out := flag.String("out", "", "config runs: write the JSON results to this file (default stdout)")
	list := flag.Bool("list", false, "list problem keys and exit")
	quiet := flag.Bool("quiet", false, "suppress per-generation progress")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	traceFile := flag.String("trace", "", "write a Go execution trace of the run to this file")
	flag.Parse()

	if *list {
		for _, k := range problems.Keys() {
			ps, _ := problems.Lookup(k)
			fmt.Printf("%-12s class=%s\n", k, ps.Class)
		}
		return 0
	}
	checkFlags(*configPath != "")
	stopProfiles, err := prof.Start(*cpuProfile, *traceFile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "pgarun:", err)
			status = 2
		}
	}()

	// The one context of the process: SIGINT cancels it, and once it is
	// cancelled the default disposition is back, so a second one kills.
	ctx, restore := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, restore)
	opts := spec.RunOpts{}
	opts.Context = ctx

	if *configPath != "" {
		return runConfig(*configPath, *out, *validate, *quiet, opts)
	}

	s := specFromFlags(flagSpec{
		problem: *problem, size: *size, model: *model,
		demes: *demes, pop: *pop, gens: *gens,
		interval: *interval, migrants: *migrants, topo: *topo,
		async: *async, resilience: *resilience,
		rows: *rows, cols: *cols, workers: *workers,
		peers: *peers, churn: *churn,
		cost: *cost, scenario: *scenario, seed: *seed,
	})
	plan, err := spec.Resolve(*s)
	if err != nil {
		fail(err)
	}
	// The flag path stops at the known optimum wherever the problem has
	// one.
	s.Budget.TargetOptimum = plan.StopAtOptimum()
	if *validate {
		doc, jerr := s.JSON()
		if jerr != nil {
			fail(jerr)
		}
		fmt.Printf("%s\n", doc)
		return 0
	}
	opts.OnStep = func(st core.Status) {
		if !*quiet && st.Generation%25 == 0 {
			fmt.Printf("gen %4d  best %.6g  evals %d\n", st.Generation, st.BestFitness, st.Evaluations)
		}
	}
	b := plan.Build()
	printReport(b.Run(opts), b)
	return exitStatus(opts)
}

// exitStatus is 130 for an interrupted process — said once its partial
// results are out — and 0 otherwise.
func exitStatus(opts spec.RunOpts) int {
	if opts.Context.Err() != nil {
		fmt.Fprintln(os.Stderr, "pgarun: interrupted: the results are partial")
		return 130
	}
	return 0
}

// configFlags are the flags a -config run reads; -out means nothing
// without -config.
var configFlags = map[string]bool{
	"config": true, "validate": true, "out": true, "quiet": true,
	"cpuprofile": true, "trace": true,
}

// checkFlags refuses, naming it, a flag that was set but would be
// ignored: a model flag next to -config (the document is the whole
// spec), or -out without -config.
func checkFlags(config bool) {
	flag.Visit(func(f *flag.Flag) {
		switch {
		case config && !configFlags[f.Name]:
			fail(fmt.Errorf("-%s has no effect with -config: the document is the whole spec", f.Name))
		case !config && f.Name == "out":
			fail(fmt.Errorf("-out needs -config"))
		}
	})
}

// flagSpec carries the parsed flag values into the spec builder.
type flagSpec struct {
	problem          string
	size             int
	model            string
	demes, pop, gens int
	interval         int
	migrants         int
	topo             string
	async            bool
	resilience       string
	rows, cols       int
	workers          int
	peers            int
	churn            float64
	cost             float64
	scenario         int
	seed             uint64
}

// specFromFlags assembles the RunSpec a flag invocation means. It adds
// nothing the config path cannot express: the flags are a shorthand for
// a subset of the spec schema.
func specFromFlags(f flagSpec) *spec.RunSpec {
	model := f.model
	if model == "sequential" { // historical alias
		model = spec.ModelGenerational
	}
	s := &spec.RunSpec{
		Model:   model,
		Problem: spec.ProblemSpec{Name: f.problem, Size: f.size},
		Engine:  spec.EngineSpec{Pop: f.pop},
		Budget:  spec.BudgetSpec{Generations: f.gens},
		Seed:    f.seed,
	}
	// Which flags feed which model's fields; everything else about the
	// models is the spec layer's knowledge.
	switch model {
	case spec.ModelParallel:
		s.Engine.Workers = f.workers
	case spec.ModelMasterSlave:
		s.Farm = &spec.FarmSpec{Workers: f.workers}
	case spec.ModelCellular:
		s.Engine = spec.EngineSpec{Grid: &spec.GridSpec{Rows: f.rows, Cols: f.cols, Update: "nrs"}}
	case spec.ModelIslands:
		is := &spec.IslandSpec{
			Demes:      f.demes,
			Topology:   spec.TopologySpec{Kind: f.topo},
			Migration:  spec.MigrationSpec{Interval: f.interval, Count: f.migrants, Async: f.async},
			Resilience: f.resilience,
		}
		supervised := f.resilience != "" && f.resilience != "none"
		if f.async || supervised {
			is.Mode = "parallel"
		}
		s.Islands = is
	case spec.ModelP2P:
		s.P2P = &spec.P2PSpec{Peers: f.peers, Churn: f.churn}
	case spec.ModelHGA:
		s.Budget = spec.BudgetSpec{Cost: f.cost}
	case spec.ModelSIM:
		s.Engine = spec.EngineSpec{}
		s.SIM = &spec.SIMSpec{Scenario: f.scenario}
	}
	return s
}

// printReport renders the model-appropriate summary lines.
func printReport(rep *spec.Report, b *spec.Built) {
	fmt.Printf("%s: best=%g gens=%d evals=%d solved=%v stop=%q\n",
		rep.Problem, rep.Best, rep.Generations, rep.Evaluations, rep.Solved, rep.StopReason)
	switch rep.Model {
	case spec.ModelMasterSlave:
		st := b.Farm.Stats()
		fmt.Printf("farm: %d workers, %d evaluations, %d redispatched\n",
			b.Farm.Workers(), st.Evaluations, st.Redispatched)
	case spec.ModelIslands:
		fmt.Printf("islands: migrations=%d", rep.Migrations)
		if rep.Restarts > 0 || len(rep.DeadDemes) > 0 {
			fmt.Printf(" restarts=%d dead=%v", rep.Restarts, rep.DeadDemes)
		}
		fmt.Println()
	case spec.ModelP2P:
		fmt.Printf("p2p: alive=%d departures=%d joins=%d\n",
			rep.AliveAtEnd, rep.Departures, rep.Joins)
	case spec.ModelHGA:
		fmt.Printf("hga: cost=%g cost-at-solve=%g\n", rep.Cost, rep.CostAtSolve)
	case spec.ModelSIM:
		fmt.Printf("sim: hypervolume=%.6g pareto=%d islands=%d\n",
			rep.Hypervolume, rep.ParetoSize, rep.Islands)
	}
}

// runConfig runs (or just validates) a spec/sweep document under opts
// and returns the exit status.
func runConfig(path, out string, validateOnly, quiet bool, opts spec.RunOpts) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	f, perr := spec.ParseFile(data)
	if perr != nil {
		fail(perr)
	}

	if f.Single != nil {
		if validateOnly {
			fmt.Printf("%s: valid single-run spec (model %s, problem %s)\n", path, f.Single.Model, f.Single.Problem.Name)
			return 0
		}
		b, berr := spec.Build(*f.Single)
		if berr != nil {
			fail(berr)
		}
		rep := b.Run(opts)
		writeResults(out, []*spec.Report{rep})
		return exitStatus(opts)
	}

	if validateOnly {
		cells, _ := f.Sweep.Cells() // the expansion ParseFile validated
		fmt.Printf("%s: valid sweep (%d cells × %d axes)\n", path, len(cells), len(f.Sweep.Axes))
		return 0
	}
	reports, rerr := f.Sweep.Run(opts)
	if rerr != nil && opts.Context.Err() == nil {
		fail(rerr)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "pgarun: %d runs complete\n", len(reports))
	}
	// An interrupted sweep still writes the runs that finished.
	writeResults(out, reports)
	return exitStatus(opts)
}

// writeResults marshals the run reports to -out (or stdout).
func writeResults(out string, reports []*spec.Report) {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pgarun:", err)
	os.Exit(2)
}
