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
	"sort"

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
//
// items is in slot order — the order Items returns and the crowding
// tie-break reads. byF1 holds the same slots ordered by first objective,
// so Add finds the newcomer's rank by binary search and compares it only
// with the items that rank can relate it to.
type Archive struct {
	items []ArchiveItem
	byF1  []int
	cap   int
	// next is eviction's slot renumbering, kept so eviction allocates
	// nothing once it has run at the archive's size.
	next []int
}

// NewArchive returns an archive holding at most cap items (0 = unbounded).
func NewArchive(cap int) *Archive { return &Archive{cap: cap} }

// Len returns the archive size.
func (a *Archive) Len() int { return len(a.items) }

// Items returns the archived solutions (not a copy; treat as read-only).
// The slice and the items' buffers are valid until the next Add, which
// may overwrite a replaced item's genome and objectives in place.
func (a *Archive) Items() []ArchiveItem { return a.items }

// Add inserts the solution if it is not dominated by any archived item,
// evicting items it dominates. Returns true if inserted. When the archive
// is full, the new item replaces its nearest neighbour in objective space
// (a simple crowding rule), the lowest slot of equally near ones. A
// vector with a NaN or infinite component is refused: it has no
// meaningful distance to anything, so the crowding rule could not choose
// what it replaces. An empty vector is refused too: it relates to
// nothing. The first insert fixes the archive's objective count; a
// vector of any other non-zero length panics. Every g must be one
// problem's genome (same concrete type and length): Add copies it into a
// replaced item's storage with core.CopyGenome.
//
// An item with a larger first objective than the newcomer's cannot
// dominate or equal it, and one with a smaller first objective cannot be
// dominated by it, so each test runs over one side of the newcomer's
// rank only. With at most two objectives the archive is a staircase — f2
// strictly falls as f1 rises — so each of those scans also stops at its
// first item that fails the test, and Add is O(log n) apart from moving
// slots; with more objectives the scans run to their rank bound.
func (a *Archive) Add(g core.Genome, objs []float64) bool {
	if len(objs) == 0 {
		return false
	}
	if len(a.items) > 0 && len(objs) != len(a.items[0].Objectives) {
		panic("sim: objective vectors of different lengths")
	}
	for _, v := range objs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	staircase := len(objs) <= 2
	// lo is the first rank whose f1 is not below the newcomer's, hi the
	// first whose f1 is above it.
	lo := sort.Search(len(a.byF1), func(p int) bool { return a.f1(p) >= objs[0] })
	hi := lo
	for hi < len(a.byF1) && a.f1(hi) == objs[0] {
		hi++
	}
	for p := hi - 1; p >= 0; p-- {
		if compare(a.items[a.byF1[p]].Objectives, objs) == coversNew {
			return false
		}
		if staircase {
			break
		}
	}
	// Mark the items the newcomer dominates by complementing their byF1
	// entries; evict drops them.
	dominated := false
	for p := lo; p < len(a.byF1); p++ {
		if compare(a.items[a.byF1[p]].Objectives, objs) != coveredByNew {
			if staircase {
				break
			}
			continue
		}
		a.byF1[p] = ^a.byF1[p]
		dominated = true
	}
	var spare ArchiveItem
	if dominated {
		// Every evicted rank is at or above lo, so lo is still the
		// newcomer's rank.
		spare = a.evict()
	} else if a.cap > 0 && len(a.items) >= a.cap {
		p := a.nearest(lo, objs)
		s := a.byF1[p]
		it := &a.items[s]
		it.Genome = core.CopyGenome(it.Genome, g)
		copy(it.Objectives, objs)
		if p < lo {
			lo--
			copy(a.byF1[p:lo], a.byF1[p+1:lo+1])
		} else {
			copy(a.byF1[lo+1:p+1], a.byF1[lo:p])
		}
		a.byF1[lo] = s
		return true
	}
	item := ArchiveItem{Genome: core.CopyGenome(spare.Genome, g), Objectives: append(spare.Objectives[:0], objs...)}
	a.items = append(a.items, item)
	a.byF1 = append(a.byF1, 0)
	copy(a.byF1[lo+1:], a.byF1[lo:])
	a.byF1[lo] = len(a.items) - 1
	return true
}

// f1 is the first objective of the item at rank p.
func (a *Archive) f1(p int) float64 { return a.items[a.byF1[p]].Objectives[0] }

// nearest returns the rank of the item closest to objs, the lowest slot of
// equally near ones. It scans outward from rank lo while the first
// objective alone is no farther than the best distance found: sqDist's
// sum starts with the f1 term and never falls below it, and that term
// only grows away from lo.
func (a *Archive) nearest(lo int, objs []float64) int {
	best, bestSlot, bestD := -1, len(a.items), math.Inf(1)
	consider := func(p int) bool {
		it := a.items[a.byF1[p]].Objectives
		if d := it[0] - objs[0]; d*d > bestD {
			return false
		}
		if d, s := sqDist(it, objs), a.byF1[p]; d < bestD || d == bestD && s < bestSlot {
			best, bestSlot, bestD = p, s, d
		}
		return true
	}
	for p := lo; p < len(a.byF1) && consider(p); p++ {
	}
	for p := lo - 1; p >= 0 && consider(p); p-- {
	}
	return best
}

// evict removes the items whose byF1 entries Add complemented, keeping the
// survivors' slot order, renumbers byF1 to match, and returns one evicted
// item so the newcomer can take over its buffers.
func (a *Archive) evict() (spare ArchiveItem) {
	if cap(a.next) < len(a.items) {
		a.next = make([]int, len(a.items))
	}
	next := a.next[:len(a.items)]
	for _, e := range a.byF1 {
		if e < 0 {
			next[^e] = -1
		} else {
			next[e] = 0
		}
	}
	kept := 0
	for s, it := range a.items {
		if next[s] < 0 {
			spare = it
			continue
		}
		next[s] = kept
		a.items[kept] = it
		kept++
	}
	clear(a.items[kept:])
	a.items = a.items[:kept]
	ranks := a.byF1[:0]
	for _, e := range a.byF1 {
		if e >= 0 {
			ranks = append(ranks, next[e])
		}
	}
	a.byF1 = ranks
	return spare
}

// The outcomes of comparing an archived vector with a newcomer.
const (
	incomparable = iota
	coversNew    // the archived vector dominates or equals the newcomer
	coveredByNew // the newcomer dominates the archived vector
)

// compare classifies an archived objective vector against a newcomer of
// the same length in one walk over the components (minimisation).
func compare(it, objs []float64) int {
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
