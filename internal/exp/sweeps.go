package exp

import (
	"io"
	"slices"

	"pga/examples/experiments"
	"pga/internal/core"
	"pga/internal/spec"
	"pga/internal/stats"
)

// documents maps each experiment that is a sweep to its documents under
// examples/experiments, in the order its reducer receives their grids.
var documents = map[string][]string{}

// registerSweep registers e as the sweeps of docs: its Run runs each
// document on Sweep.Run's worker pool (quick-trimmed when asked) under
// opts and hands the grids to reduce, which prints the table.
func registerSweep(e Experiment, opts spec.RunOpts, reduce func(w io.Writer, gs []grid), docs ...string) {
	documents[e.ID] = docs
	e.Run = func(w io.Writer, quick bool) {
		gs := make([]grid, len(docs))
		for i, d := range docs {
			gs[i] = runDocument(d, quick, opts)
		}
		reduce(w, gs)
	}
	register(e)
}

// grid is one document's run, as table rows.
type grid []row

// row is one point of a grid: the cells that differ in seed alone
// (every document sweeps "seed"), in seed order.
type row struct {
	spec    spec.RunSpec // the row's first cell
	reports []*spec.Report
}

// runs is the replicate count of each row.
func (g grid) runs() int { return len(g[0].reports) }

// runDocument runs one embedded document and groups its reports into
// rows. The documents are checked in and their tests parse them, so a
// failure here is a programming error, not an input error.
func runDocument(name string, quick bool, opts spec.RunOpts) grid {
	sw := mustParse(name)
	if quick {
		sw = quickSweep(sw)
	}
	cells, cerr := sw.Cells()
	if cerr != nil {
		panic(cerr)
	}
	reports, err := sw.Run(opts)
	if err != nil {
		panic(err)
	}
	return group(sw, cells, reports)
}

// group collects each cell's report into its row, rows in the order of
// their first cell. The seed axis need not be the fastest ("sim.*"
// paths sort after it), so a row's cells are spaced by the product of
// the axes after it.
func group(sw *spec.Sweep, cells []spec.Cell, reports []*spec.Report) grid {
	k := slices.IndexFunc(sw.Axes, func(ax spec.Axis) bool { return ax.Path == "seed" })
	seeds, inner := len(sw.Axes[k].Values), 1
	for _, ax := range sw.Axes[k+1:] {
		inner *= len(ax.Values)
	}
	var g grid
	for i, c := range cells {
		r := c.Index/(inner*seeds)*inner + c.Index%inner
		if r == len(g) {
			g = append(g, row{spec: c.Spec})
		}
		g[r].reports = append(g[r].reports, reports[i])
	}
	return g
}

// mustParse parses one embedded document.
func mustParse(name string) *spec.Sweep {
	data, err := experiments.Files.ReadFile(name)
	if err != nil {
		panic(err)
	}
	f, err := spec.ParseFile(data)
	if err != nil {
		panic(err)
	}
	return f.Sweep
}

// quickSweep is the -quick rule for every document: the first two seed
// values, at most 60 generations.
func quickSweep(sw *spec.Sweep) *spec.Sweep {
	q := &spec.Sweep{Base: sw.Base, Axes: slices.Clone(sw.Axes), Replicates: sw.Replicates}
	for i, ax := range q.Axes {
		if ax.Path == "seed" {
			q.Axes[i].Values = ax.Values[:min(2, len(ax.Values))]
		}
	}
	q.Base.Budget.Generations = min(q.Base.Budget.Generations, 60)
	return q
}

// outcome is the row's efficacy and effort (hit rate, evaluations to
// solve) and the summary of its final best fitness.
func (r row) outcome() (*stats.HitRate, stats.Summary) {
	var hit stats.HitRate
	finals := make([]float64, len(r.reports))
	for i, rep := range r.reports {
		hit.Record(rep.Solved, rep.SolvedAtEval)
		finals[i] = rep.Best
	}
	return &hit, stats.Summarize(finals)
}

// mean is the mean of one report field over the row's runs.
func (r row) mean(field func(*spec.Report) float64) float64 {
	xs := make([]float64, len(r.reports))
	for i, rep := range r.reports {
		xs[i] = field(rep)
	}
	return stats.Summarize(xs).Mean
}

// problemName is the instance name of the spec's problem, e.g. "trap(10x4)".
func problemName(s spec.RunSpec) string { return instance(s).Name() }

// instance is the spec's problem, on instance seed 0 unless it pins one.
func instance(s spec.RunSpec) core.Problem {
	inst, err := s.Problem.Instance(0)
	if err != nil {
		panic(err)
	}
	return inst
}
