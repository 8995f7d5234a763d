// Package sim implements the Specialized Island Model (SIM) of Xiao &
// Armstrong (2003), reviewed in §2 of the survey: a multi-objective
// evolutionary algorithm split into sub-EAs, each responsible for
// optimising a subset of the objectives, exchanging individuals over a
// communication topology. The original paper tested seven scenarios
// varying the number of sub-EAs, their specialisation and the topology;
// experiment E9 reproduces that seven-scenario comparison.
package sim

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/rng"
)

// MultiObjective is a problem with several minimised objectives.
type MultiObjective interface {
	// Name identifies the problem.
	Name() string
	// NObjectives returns the number of objectives.
	NObjectives() int
	// NewGenome returns a fresh random genome.
	NewGenome(r *rng.Source) core.Genome
	// Objectives returns all objective values of g (all minimised). They
	// should be finite: an Archive refuses a vector with a NaN or infinite
	// component.
	Objectives(g core.Genome) []float64
}

// Dominates reports whether objective vector a Pareto-dominates b
// (minimisation: a is no worse everywhere and strictly better somewhere).
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic("sim: objective vectors of different lengths")
	}
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// ArchiveItem is a non-dominated solution with its objective vector.
type ArchiveItem struct {
	Genome     core.Genome
	Objectives []float64
}

// Archive maintains a bounded set of mutually non-dominated solutions.
type Archive struct {
	items []ArchiveItem
	cap   int
}

// NewArchive returns an archive holding at most cap items (0 = unbounded).
func NewArchive(cap int) *Archive { return &Archive{cap: cap} }

// Len returns the archive size.
func (a *Archive) Len() int { return len(a.items) }

// Items returns the archived solutions (not a copy; treat as read-only).
func (a *Archive) Items() []ArchiveItem { return a.items }

// Add inserts the solution if it is not dominated by any archived item,
// evicting items it dominates. Returns true if inserted. When the archive
// is full, the new item replaces its nearest neighbour in objective space
// (a simple crowding rule). A vector with a NaN or infinite component is
// refused: it has no meaningful distance to anything, so the crowding
// rule could not choose what it replaces.
func (a *Archive) Add(g core.Genome, objs []float64) bool {
	for _, v := range objs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	// One pass: an item that dominates or equals the newcomer rejects it;
	// the first item the newcomer dominates is remembered. Nothing is
	// evicted until the pass has ended without a rejection.
	firstDominated := -1
	for i := range a.items {
		switch compare(a.items[i].Objectives, objs) {
		case coversNew:
			return false
		case coveredByNew:
			if firstDominated < 0 {
				firstDominated = i
			}
		}
	}
	if firstDominated >= 0 {
		// Compact in place, keeping the survivors' order.
		kept := a.items[:firstDominated]
		for i := firstDominated + 1; i < len(a.items); i++ {
			if !Dominates(objs, a.items[i].Objectives) {
				kept = append(kept, a.items[i])
			}
		}
		a.items = kept
	}
	item := ArchiveItem{Genome: g.Clone(), Objectives: append([]float64(nil), objs...)}
	if a.cap > 0 && len(a.items) >= a.cap {
		// Replace the archived item closest to the newcomer (crowding);
		// the first of equally near ones.
		nearest, bestD := 0, math.Inf(1)
		for i := range a.items {
			if d := sqDist(a.items[i].Objectives, objs); d < bestD {
				nearest, bestD = i, d
			}
		}
		a.items[nearest] = item
		return true
	}
	a.items = append(a.items, item)
	return true
}

// The outcomes of comparing an archived vector with a newcomer.
const (
	incomparable = iota
	coversNew    // the archived vector dominates or equals the newcomer
	coveredByNew // the newcomer dominates the archived vector
)

// compare classifies an archived objective vector against a newcomer in
// one walk over the components (minimisation).
func compare(it, objs []float64) int {
	if len(it) != len(objs) {
		panic("sim: objective vectors of different lengths")
	}
	itBetter, newBetter := false, false
	for i := range it {
		switch {
		case it[i] < objs[i]:
			itBetter = true
		case it[i] > objs[i]:
			newBetter = true
		}
		if itBetter && newBetter {
			return incomparable
		}
	}
	if newBetter {
		return coveredByNew
	}
	return coversNew // dominates, or equal in every component
}

func equalObjs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Hypervolume2D returns the hypervolume (area) dominated by the given
// bi-objective points relative to the reference point (minimisation;
// points beyond the reference contribute nothing). The standard
// quality indicator for two-objective fronts.
func Hypervolume2D(points [][]float64, ref [2]float64) float64 {
	// Filter to points strictly dominating the reference.
	var ps [][]float64
	for _, p := range points {
		if len(p) != 2 {
			panic("sim: Hypervolume2D requires 2-objective points")
		}
		if p[0] < ref[0] && p[1] < ref[1] {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		return 0
	}
	// Sort by f1 ascending; sweep accumulating rectangles.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j][0] < ps[j-1][0]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	hv := 0.0
	prevF2 := ref[1]
	for _, p := range ps {
		if p[1] < prevF2 {
			hv += (ref[0] - p[0]) * (prevF2 - p[1])
			prevF2 = p[1]
		}
	}
	return hv
}

// ZDT1 is the classic bi-objective benchmark: f1 = x0,
// f2 = g·(1−√(f1/g)) with g = 1 + 9·mean(x1..). Pareto front: g = 1.
type ZDT1 struct {
	// Dim is the number of decision variables (≥ 2); classically 30.
	Dim int
}

// Name implements MultiObjective.
func (z ZDT1) Name() string { return fmt.Sprintf("zdt1(%d)", z.Dim) }

// NObjectives implements MultiObjective.
func (ZDT1) NObjectives() int { return 2 }

// NewGenome implements MultiObjective.
func (z ZDT1) NewGenome(r *rng.Source) core.Genome {
	return randomUnitVector(z.Dim, r)
}

// Objectives implements MultiObjective.
func (z ZDT1) Objectives(gen core.Genome) []float64 {
	x := genes(gen)
	f1 := x[0]
	g := 0.0
	for _, v := range x[1:] {
		g += v
	}
	g = 1 + 9*g/float64(len(x)-1)
	f2 := g * (1 - math.Sqrt(f1/g))
	return []float64{f1, f2}
}

// Schaffer is Schaffer's single-variable bi-objective problem:
// f1 = x², f2 = (x−2)²; Pareto set is x ∈ [0, 2]. Genes are scaled from
// [0,1] to [-4, 6].
type Schaffer struct{}

// Name implements MultiObjective.
func (Schaffer) Name() string { return "schaffer" }

// NObjectives implements MultiObjective.
func (Schaffer) NObjectives() int { return 2 }

// NewGenome implements MultiObjective.
func (Schaffer) NewGenome(r *rng.Source) core.Genome { return randomUnitVector(1, r) }

// Objectives implements MultiObjective.
func (Schaffer) Objectives(gen core.Genome) []float64 {
	x := genes(gen)[0]*10 - 4
	return []float64{x * x, (x - 2) * (x - 2)}
}
