package operators

import (
	"fmt"
	"sort"
	"testing"

	"pga/internal/core"
	"pga/internal/rng"
)

// The per-pick bodies the selectors had before plans existed — a full
// stable sort or a linear scan of the population on every call — kept
// here as the oracle the planned picks must match index for index and
// draw for draw.

func refRanked(pop *core.Population, d core.Direction) []int {
	idx := make([]int, pop.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { // worst first
		return d.Better(pop.Members[idx[b]].Fitness, pop.Members[idx[a]].Fitness)
	})
	return idx
}

func refSelect(sel Selector, pop *core.Population, d core.Direction, r *rng.Source) int {
	n := pop.Len()
	switch sel := sel.(type) {
	case LinearRank:
		ranked := refRanked(pop, d)
		if n == 1 {
			return 0
		}
		sp := sel.sp()
		x := r.Float64() * float64(n)
		acc := 0.0
		for rank := 0; rank < n; rank++ {
			w := 2 - sp + 2*(sp-1)*float64(rank)/float64(n-1)
			acc += w
			if x < acc {
				return ranked[rank]
			}
		}
		return ranked[n-1]
	case Truncation:
		k := int(float64(n) * sel.frac())
		if k < 1 {
			k = 1
		}
		return refRanked(pop, d)[n-k+r.Intn(k)]
	case Roulette:
		min, max := pop.Members[0].Fitness, pop.Members[0].Fitness
		for _, ind := range pop.Members {
			if ind.Fitness < min {
				min = ind.Fitness
			}
			if ind.Fitness > max {
				max = ind.Fitness
			}
		}
		span := max - min
		if span == 0 {
			return r.Intn(n)
		}
		const eps = 0.01
		weight := func(f float64) float64 {
			if d == core.Maximize {
				return (f-min)/span + eps
			}
			return (max-f)/span + eps
		}
		total := 0.0
		for _, ind := range pop.Members {
			total += weight(ind.Fitness)
		}
		x := r.Float64() * total
		acc := 0.0
		for i, ind := range pop.Members {
			acc += weight(ind.Fitness)
			if x < acc {
				return i
			}
		}
		return n - 1
	}
	panic("refSelect: no reference for " + sel.Name())
}

func plannedSelectors() []Selector {
	return []Selector{
		LinearRank{}, LinearRank{SP: 2}, // SP 2: rank 0 has weight 0
		Truncation{}, Truncation{Frac: 0.2},
		Roulette{},
	}
}

// planTestPops returns, for each size, a population of few distinct
// fitness values (many ties, some negative) and one of all-equal fitness
// (roulette's Intn branch).
func planTestPops(r *rng.Source) []*core.Population {
	var pops []*core.Population
	for _, n := range []int{1, 2, 3, 7, 64, 257} {
		tied, flat := make([]float64, n), make([]float64, n)
		for i := range tied {
			tied[i] = float64(r.Intn(9)) - 3.5
			flat[i] = 2.25
		}
		pops = append(pops, popWithFitness(tied...), popWithFitness(flat...))
	}
	return pops
}

// TestPlannedEqualsUnplanned: k picks under one plan, k unplanned Select
// calls and k calls of the historical per-pick body return the same
// indices and leave three twin streams in the same state.
func TestPlannedEqualsUnplanned(t *testing.T) {
	const k = 40
	gen := rng.New(2024)
	for round := 0; round < 4; round++ {
		for _, pop := range planTestPops(gen) {
			for _, d := range []core.Direction{core.Maximize, core.Minimize} {
				for _, sel := range plannedSelectors() {
					seed := gen.Uint64()
					rPlan, rSel, rRef := rng.New(seed), rng.New(seed), rng.New(seed)
					var s Scratch
					s.Plan(sel, pop, d)
					for i := 0; i < k; i++ {
						planned := SelectWith(sel, pop, d, rPlan, &s)
						unplanned := sel.Select(pop, d, rSel, &Scratch{})
						ref := refSelect(sel, pop, d, rRef)
						if planned != ref || unplanned != ref {
							t.Fatalf("%s n=%d %v pick %d: planned %d, unplanned %d, reference %d",
								sel.Name(), pop.Len(), d, i, planned, unplanned, ref)
						}
					}
					s.Unplan()
					if rPlan.State() != rRef.State() || rSel.State() != rRef.State() {
						t.Fatalf("%s n=%d %v: streams diverged after %d picks", sel.Name(), pop.Len(), d, k)
					}
				}
			}
		}
	}
}

// TestPlanDoesNotOutliveItsPopulation: after Unplan nothing of the plan
// is consulted — the same scratch on a different population answers like
// a fresh scratch.
func TestPlanDoesNotOutliveItsPopulation(t *testing.T) {
	first := popWithFitness(9, 1, 8, 2, 7, 3, 6, 4, 5)
	second := popWithFitness(1, 9, 2, 8, 3, 7, 4, 6, 5) // same size, other order
	for _, sel := range plannedSelectors() {
		for _, d := range []core.Direction{core.Maximize, core.Minimize} {
			var used Scratch
			used.Plan(sel, first, d)
			SelectWith(sel, first, d, rng.New(1), &used)
			used.Unplan()
			r1, r2 := rng.New(77), rng.New(77)
			for i := 0; i < 32; i++ {
				got := SelectWith(sel, second, d, r1, &used)
				want := SelectWith(sel, second, d, r2, &Scratch{})
				if got != want {
					t.Fatalf("%s %v pick %d: used scratch %d, fresh scratch %d", sel.Name(), d, i, got, want)
				}
			}
		}
	}
}

// TestPlanMismatchPanics: a pick under a plan opened for something else
// is refused, not answered from the wrong tables.
func TestPlanMismatchPanics(t *testing.T) {
	pop, other := popWithFitness(1, 2, 3), popWithFitness(3, 2, 1)
	for _, tc := range []struct {
		name string
		pick func(s *Scratch)
	}{
		{"other population", func(s *Scratch) { SelectWith(LinearRank{}, other, core.Maximize, rng.New(1), s) }},
		{"other direction", func(s *Scratch) { SelectWith(LinearRank{}, pop, core.Minimize, rng.New(1), s) }},
		{"other family", func(s *Scratch) { SelectWith(Roulette{}, pop, core.Maximize, rng.New(1), s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Scratch
			s.Plan(LinearRank{}, pop, core.Maximize)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.pick(&s)
		})
	}
}

var benchPick int

// BenchmarkSelect shows what the plan buys: an unplanned pick pays the
// sort (rank, truncation) or two scans (roulette) of the population, a
// planned pick one draw and a binary search.
func BenchmarkSelect(b *testing.B) {
	sels := []struct {
		name string
		sel  Selector
	}{{"rank", LinearRank{}}, {"truncation", Truncation{}}, {"roulette", Roulette{}}}
	for _, tc := range sels {
		for _, planned := range []bool{true, false} {
			for _, n := range []int{50, 1000} {
				mode := "unplanned"
				if planned {
					mode = "planned"
				}
				b.Run(fmt.Sprintf("%s/%s/n=%d", tc.name, mode, n), func(b *testing.B) {
					r := rng.New(1)
					fs := make([]float64, n)
					for i := range fs {
						fs[i] = r.Float64()
					}
					pop := popWithFitness(fs...)
					var s Scratch
					if planned {
						s.Plan(tc.sel, pop, core.Maximize)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchPick += SelectWith(tc.sel, pop, core.Maximize, r, &s)
					}
				})
			}
		}
	}
}
