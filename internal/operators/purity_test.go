package operators

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// pureRounds is how many calls each goroutine makes per role.
const pureRounds = 16

// TestOperatorsArePure runs each role of every registered operator on
// two goroutines at once: the same operator value, equal inputs (shared
// read-only parents and population, equal copies of what the role
// writes) and equal fresh streams. The outputs must be equal. State kept
// in a receiver or a package variable either makes them differ or is a
// data race, which `make race` reports.
func TestOperatorsArePure(t *testing.T) {
	kinds := []struct {
		name string
		make func(r *rng.Source) core.Genome
	}{
		{"bits", func(r *rng.Source) core.Genome { return genome.RandomBitString(100, r) }},
		{"ints", func(r *rng.Source) core.Genome { return genome.RandomIntVector(24, 5, r) }},
		{"reals", func(r *rng.Source) core.Genome { return genome.RandomRealVector(24, -5, 5, r) }},
		{"perm", func(r *rng.Source) core.Genome { return genome.RandomPermutation(24, r) }},
	}
	src := rng.New(7)
	pop := core.NewPopulation(12)
	for i := 0; i < 12; i++ {
		ind := core.NewIndividual(genome.RandomBitString(16, src))
		ind.Fitness, ind.Evaluated = float64((i*5)%12), true
		pop.Members = append(pop.Members, ind)
	}
	for _, op := range RegisteredOperators() {
		name := OperatorTypeName(op)
		ran := 0
		if sel, ok := op.(Selector); ok {
			for _, d := range []core.Direction{core.Maximize, core.Minimize} {
				samePair(t, name+"/Select/"+d.String(), func(r *rng.Source) any {
					return sel.Select(pop, d, r, &Scratch{})
				})
			}
			ran++
		}
		for _, k := range kinds {
			a, b, g := k.make(src), k.make(src), k.make(src)
			if c, ok := op.(Crossover); ok && supports(func() { cross(c, a, b, rng.New(1)) }) {
				samePair(t, name+"/CrossInto/"+k.name, func(r *rng.Source) any {
					c1, c2 := cross(c, a, b, r)
					return [2]core.Genome{c1, c2}
				})
				ran++
			}
			if m, ok := op.(Mutator); ok && supports(func() { m.Mutate(g.Clone(), rng.New(1)) }) {
				samePair(t, name+"/Mutate/"+k.name, func(r *rng.Source) any {
					h := g.Clone()
					m.Mutate(h, r)
					return h
				})
				ran++
			}
		}
		if ran == 0 {
			t.Errorf("%s: no role ran on any genome kind", name)
		}
	}
}

// supports reports whether f returns without panicking: operators panic
// on a genome kind they do not handle.
func supports(f func()) (ok bool) {
	defer func() { ok = recover() == nil }()
	f()
	return true
}

// samePair runs role pureRounds times on each of two goroutines, each
// with its own rng.New(1), and requires equal output sequences.
func samePair(t *testing.T, what string, role func(r *rng.Source) any) {
	t.Helper()
	var out [2][]any
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(1)
			for k := 0; k < pureRounds; k++ {
				out[i] = append(out[i], role(r))
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Errorf("%s: two goroutines with equal inputs and streams disagree:\n%v\n%v",
			what, fmt.Sprint(out[0]...), fmt.Sprint(out[1]...))
	}
}
