// Package cellular implements the fine-grained (cellular) GA: one
// individual per cell of a 2-D toroidal grid, mating restricted to a small
// neighbourhood, with synchronous or asynchronous cell updates.
//
// This is the model of Manderick & Spiessens (1989) and Baluja (1993)
// reviewed in §2 of the survey, and the update policies are exactly the
// ones whose selection pressure Giacobini, Alba & Tomassini (2003)
// analysed: synchronous, line sweep (LS), fixed random sweep (FRS), new
// random sweep (NRS) and uniform choice (UC).
package cellular

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/rng"
)

// Neighborhood names the mating neighbourhood shape.
type Neighborhood int

const (
	// VonNeumann is the L5 neighbourhood: N, S, E, W and the centre.
	VonNeumann Neighborhood = iota
	// Moore is the C9 neighbourhood: all 8 surrounding cells and the centre.
	Moore
	// Linear9 is the L9 neighbourhood: 2 cells in each axis direction and
	// the centre.
	Linear9
)

// String implements fmt.Stringer.
func (n Neighborhood) String() string {
	switch n {
	case VonNeumann:
		return "L5"
	case Moore:
		return "C9"
	case Linear9:
		return "L9"
	}
	return "unknown"
}

// UpdatePolicy names the cell-update schedule of one sweep.
type UpdatePolicy int

const (
	// Synchronous updates every cell from the previous sweep's grid.
	Synchronous UpdatePolicy = iota
	// LineSweep updates cells in row-major order, in place.
	LineSweep
	// FixedRandomSweep updates cells in a random order chosen once and
	// reused every sweep, in place.
	FixedRandomSweep
	// NewRandomSweep updates cells in a fresh random order each sweep,
	// in place.
	NewRandomSweep
	// UniformChoice updates n cells drawn uniformly with replacement per
	// sweep (some cells may update twice, some not at all), in place.
	UniformChoice
)

// String implements fmt.Stringer.
func (u UpdatePolicy) String() string {
	switch u {
	case Synchronous:
		return "sync"
	case LineSweep:
		return "LS"
	case FixedRandomSweep:
		return "FRS"
	case NewRandomSweep:
		return "NRS"
	case UniformChoice:
		return "UC"
	}
	return "unknown"
}

// Config configures a cellular GA.
type Config struct {
	// Problem is the optimisation problem (required).
	Problem core.Problem
	// Rows and Cols give the toroidal grid shape; population size is
	// Rows*Cols. Defaults 10×10.
	Rows, Cols int
	// Neighborhood is the mating neighbourhood; default VonNeumann (L5).
	Neighborhood Neighborhood
	// Update is the cell update schedule; default Synchronous.
	Update UpdatePolicy
	// Crossover recombines the centre with the neighbourhood mate; nil
	// copies the mate.
	Crossover operators.Crossover
	// CrossoverRate is the recombination probability; default 0.9.
	CrossoverRate float64
	// Mutator perturbs the offspring; nil disables mutation.
	Mutator operators.Mutator
	// RNG is the engine's random stream (required).
	RNG *rng.Source
}

// Engine is the cellular GA engine; it implements ga.Engine so cellular
// demes can run inside the island model (Alba & Troya 2002's cellular
// islands).
type Engine struct {
	cfg        Config
	pop        *core.Population
	rows, cols int
	dir        core.Direction
	evals      int64
	fixedOrder []int // FRS order, chosen on first use
	neighbors  [][]int

	// Pooled per-sweep state (see §8 of DESIGN.md): buf holds one
	// candidate slot per cell for synchronous sweeps, accepted records
	// which candidates won their cell, child is the rotating candidate of
	// the in-place policies, discard absorbs the unused second crossover
	// child and order is the NewRandomSweep permutation buffer.
	buf      []*core.Individual
	accepted []bool
	child    *core.Individual
	discard  *core.Individual
	order    []int
	scratch  operators.Scratch
}

var _ ga.Engine = (*Engine)(nil)

// New creates a cellular engine with a random, evaluated grid.
func New(cfg Config) *Engine {
	if cfg.Problem == nil {
		panic("cellular: Config.Problem is required")
	}
	if cfg.RNG == nil {
		panic("cellular: Config.RNG is required")
	}
	if cfg.Rows == 0 {
		cfg.Rows = 10
	}
	if cfg.Cols == 0 {
		cfg.Cols = 10
	}
	if cfg.Rows < 1 || cfg.Cols < 1 || cfg.Rows*cfg.Cols < 2 {
		panic("cellular: grid must hold at least 2 cells")
	}
	if cfg.CrossoverRate == 0 {
		cfg.CrossoverRate = 0.9
	}
	e := &Engine{cfg: cfg, rows: cfg.Rows, cols: cfg.Cols, dir: cfg.Problem.Direction()}
	n := cfg.Rows * cfg.Cols
	e.pop = core.NewPopulation(n)
	for i := 0; i < n; i++ {
		ind := core.NewIndividual(cfg.Problem.NewGenome(cfg.RNG))
		ind.Fitness = cfg.Problem.Evaluate(ind.Genome)
		ind.Evaluated = true
		e.evals++
		e.pop.Members = append(e.pop.Members, ind)
	}
	e.neighbors = make([][]int, n)
	for i := 0; i < n; i++ {
		e.neighbors[i] = e.neighborhood(i)
	}
	return e
}

// Name implements ga.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("cellular(%dx%d,%s,%s)", e.rows, e.cols, e.cfg.Neighborhood, e.cfg.Update)
}

// Population implements ga.Engine.
func (e *Engine) Population() *core.Population { return e.pop }

// Problem implements ga.Engine.
func (e *Engine) Problem() core.Problem { return e.cfg.Problem }

// Evaluations implements ga.Engine.
func (e *Engine) Evaluations() int64 { return e.evals }

// neighborhood returns the cell indices of idx's mating pool, centre
// excluded (the centre is always the first parent).
func (e *Engine) neighborhood(idx int) []int {
	r, c := idx/e.cols, idx%e.cols
	wrap := func(rr, cc int) int {
		rr = (rr + e.rows) % e.rows
		cc = (cc + e.cols) % e.cols
		return rr*e.cols + cc
	}
	var offsets [][2]int
	switch e.cfg.Neighborhood {
	case Moore:
		offsets = [][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0}, {1, 1}}
	case Linear9:
		offsets = [][2]int{{-2, 0}, {-1, 0}, {1, 0}, {2, 0}, {0, -2}, {0, -1}, {0, 1}, {0, 2}}
	default: // VonNeumann
		offsets = [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	}
	out := make([]int, 0, len(offsets))
	seen := map[int]bool{idx: true} // tiny grids: drop wraps onto self/dups
	for _, o := range offsets {
		j := wrap(r+o[0], c+o[1])
		if !seen[j] {
			out = append(out, j)
			seen[j] = true
		}
	}
	return out
}

// ensureBuffers builds the pooled candidate slots on first use. Cloning
// the live members gives every slot a genome of the right concrete type
// and length so later sweeps copy in place.
func (e *Engine) ensureBuffers() {
	if e.child != nil {
		return
	}
	n := e.rows * e.cols
	e.child = e.pop.Members[0].Clone()
	e.discard = e.pop.Members[0].Clone()
	if e.cfg.Update == Synchronous {
		e.buf = make([]*core.Individual, n)
		for i := range e.buf {
			e.buf[i] = e.pop.Members[i].Clone()
		}
		e.accepted = make([]bool, n)
	}
	if e.cfg.Update == NewRandomSweep {
		e.order = make([]int, n)
	}
}

// Step implements ga.Engine: one sweep of Rows*Cols cell updates under the
// configured policy. Candidates are written into pooled buffers and
// pointer-swapped with the incumbents they beat, so a sweep is
// allocation-free at steady state; the RNG draw sequence matches the
// historical allocating implementation exactly.
func (e *Engine) Step() {
	n := e.rows * e.cols
	e.ensureBuffers()
	switch e.cfg.Update {
	case Synchronous:
		// All offspring computed against the old grid, then written at once.
		for i := 0; i < n; i++ {
			e.accepted[i] = e.offspringInto(i, e.buf[i])
		}
		for i := 0; i < n; i++ {
			if e.accepted[i] {
				// The evicted incumbent becomes the cell's buffer slot.
				e.pop.Members[i], e.buf[i] = e.buf[i], e.pop.Members[i]
			}
		}
	case LineSweep:
		for i := 0; i < n; i++ {
			e.updateInPlace(i)
		}
	case FixedRandomSweep:
		if e.fixedOrder == nil {
			e.fixedOrder = e.cfg.RNG.Perm(n)
		}
		for _, i := range e.fixedOrder {
			e.updateInPlace(i)
		}
	case NewRandomSweep:
		e.cfg.RNG.PermInto(e.order)
		for _, i := range e.order {
			e.updateInPlace(i)
		}
	case UniformChoice:
		for k := 0; k < n; k++ {
			e.updateInPlace(e.cfg.RNG.Intn(n))
		}
	}
}

// updateInPlace computes cell i's offspring against the live grid and
// installs it if accepted, recycling the evicted incumbent as the next
// candidate buffer.
func (e *Engine) updateInPlace(i int) {
	if e.offspringInto(i, e.child) {
		e.child = e.pop.Replace(i, e.child)
	}
}

// offspringInto produces cell i's candidate replacement in dst and reports
// whether it beats the incumbent (replace-if-better, the elitist rule of
// the cGA literature). On rejection dst simply holds garbage for the next
// attempt to overwrite.
func (e *Engine) offspringInto(i int, dst *core.Individual) bool {
	cfg := &e.cfg
	centre := e.pop.Members[i]
	// Binary tournament among the neighbours picks the mate.
	nbrs := e.neighbors[i]
	a := nbrs[cfg.RNG.Intn(len(nbrs))]
	b := nbrs[cfg.RNG.Intn(len(nbrs))]
	mate := e.pop.Members[a]
	if e.dir.Better(e.pop.Members[b].Fitness, mate.Fitness) {
		mate = e.pop.Members[b]
	}

	if cfg.Crossover != nil && cfg.RNG.Chance(cfg.CrossoverRate) {
		operators.CrossInto(cfg.Crossover, centre.Genome, mate.Genome, dst, e.discard, cfg.RNG, &e.scratch)
	} else {
		dst.Genome = core.CopyGenome(dst.Genome, mate.Genome)
	}
	if cfg.Mutator != nil {
		cfg.Mutator.Mutate(dst.Genome, cfg.RNG)
	}
	dst.Fitness = cfg.Problem.Evaluate(dst.Genome)
	dst.Evaluated = true
	e.evals++

	return e.dir.Better(dst.Fitness, centre.Fitness)
}
