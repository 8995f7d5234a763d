package operators

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// The per-gene loops Uniform, BitFlip and KPoint ran before their
// bit-string kernels went word-parallel, kept as the reference the
// differential tests below compare against: one Chance per gene through
// Get/Set, and a []bool cut table walked gene by gene.

func refSwapBit(a, b *genome.BitString, i int) {
	x, y := a.Get(i), b.Get(i)
	a.Set(i, y)
	b.Set(i, x)
}

func refUniform(a, b *genome.BitString, p float64, r *rng.Source) (*genome.BitString, *genome.BitString) {
	ca, cb := a.Clone().(*genome.BitString), b.Clone().(*genome.BitString)
	for i := 0; i < a.N; i++ {
		if r.Chance(p) {
			refSwapBit(ca, cb, i)
		}
	}
	return ca, cb
}

func refBitFlip(b *genome.BitString, p float64, r *rng.Source) {
	if p <= 0 {
		p = 1 / float64(b.N)
	}
	for i := 0; i < b.N; i++ {
		if r.Chance(p) {
			b.Flip(i)
		}
	}
}

func refKPoint(a, b core.Genome, k int, r *rng.Source) (core.Genome, core.Genome) {
	n := a.Len()
	ca, cb := a.Clone(), b.Clone()
	if n < 2 {
		return ca, cb
	}
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	cuts := make([]bool, n)
	for _, c := range r.Sample(n-1, k) {
		cuts[c+1] = true
	}
	swap := false
	for i := 0; i < n; i++ {
		if cuts[i] {
			swap = !swap
		}
		if !swap {
			continue
		}
		if x, ok := ca.(*genome.BitString); ok {
			refSwapBit(x, cb.(*genome.BitString), i)
		} else {
			swapGene(ca, cb, i)
		}
	}
	return ca, cb
}

// kernelLengths straddle every word boundary case of the packed layout.
var kernelLengths = []int{1, 2, 63, 64, 65, 127, 128, 129, 1000}

// sameBits requires got to equal want gene for gene with a clean tail.
func sameBits(t *testing.T, what string, got core.Genome, want *genome.BitString) {
	t.Helper()
	g := got.(*genome.BitString)
	if g.N != want.N || !slices.Equal(g.Words, want.Words) {
		t.Fatalf("%s: child differs from the per-gene reference\n got  %s\n want %s", what, g, want)
	}
	if !tailBitsClean(g) {
		t.Fatalf("%s: tail bits dirtied", what)
	}
}

// crossDirty runs c.CrossInto from the reference run's stream state on
// the caller's warm scratch and returns the children with the stream it
// left behind. The destinations start dirty (the parents swapped):
// CrossInto must overwrite, not merge.
func crossDirty(c Crossover, a, b core.Genome, seed uint64, s *Scratch) (c1, c2 core.Genome, r *rng.Source) {
	r = rng.New(seed)
	c1, c2 = b.Clone(), a.Clone()
	c.CrossInto(a, b, c1, c2, r, s)
	return c1, c2, r
}

func TestUniformMatchesPerGeneReference(t *testing.T) {
	var s Scratch
	for _, n := range kernelLengths {
		for _, p := range []float64{0, 0.1, 1} {
			seed := uint64(1000*n) + uint64(p*10)
			src := rng.New(seed)
			a, b := genome.RandomBitString(n, src), genome.RandomBitString(n, src)
			u := Uniform{P: p}

			ref := rng.New(seed + 1)
			wa, wb := refUniform(a, b, u.p(), ref)
			c1, c2, r := crossDirty(u, a, b, seed+1, &s)
			what := fmt.Sprintf("Uniform{P:%v} n=%d", p, n)
			sameBits(t, what, c1, wa)
			sameBits(t, what, c2, wb)
			if r.State() != ref.State() {
				t.Fatalf("%s: RNG state differs from the per-gene reference", what)
			}
		}
	}
}

func TestBitFlipMatchesPerGeneReference(t *testing.T) {
	for _, n := range kernelLengths {
		for _, p := range []float64{0, 0.1, 1} {
			seed := uint64(2000*n) + uint64(p*10)
			src := rng.New(seed)
			got := genome.RandomBitString(n, src)
			want := got.Clone().(*genome.BitString)

			r, ref := rng.New(seed+1), rng.New(seed+1)
			BitFlip{P: p}.Mutate(got, r)
			refBitFlip(want, p, ref)
			sameBits(t, fmt.Sprintf("BitFlip{P:%v} n=%d", p, n), got, want)
			if r.State() != ref.State() {
				t.Fatalf("BitFlip{P:%v} n=%d: RNG state differs from the per-gene reference", p, n)
			}
		}
	}
}

func TestKPointMatchesPerGeneReference(t *testing.T) {
	var s Scratch
	for _, n := range kernelLengths {
		for _, k := range []int{1, 2, 7, n - 1} {
			seed := uint64(3000*n + k)
			src := rng.New(seed)
			a, b := genome.RandomBitString(n, src), genome.RandomBitString(n, src)

			family := []Crossover{KPoint{K: k}}
			switch k {
			case 1:
				family = append(family, OnePoint{})
			case 2:
				family = append(family, TwoPoint{})
			}
			for _, c := range family {
				ref := rng.New(seed + 1)
				wa, wb := refKPoint(a, b, k, ref)
				c1, c2, r := crossDirty(c, a, b, seed+1, &s)
				what := fmt.Sprintf("%T{%d} n=%d", c, k, n)
				sameBits(t, what, c1, wa.(*genome.BitString))
				sameBits(t, what, c2, wb.(*genome.BitString))
				if r.State() != ref.State() {
					t.Fatalf("%s: RNG state differs from the per-gene reference", what)
				}
			}
		}
	}
}

// TestKPointNonBitClassesMatchReference covers the gene-by-gene walk of
// the same parity mask that integer and real vectors take.
func TestKPointNonBitClassesMatchReference(t *testing.T) {
	var s Scratch
	for _, n := range []int{2, 65, 130} {
		for _, k := range []int{1, 2, 7, n - 1} {
			seed := uint64(4000*n + k)
			src := rng.New(seed)
			pairs := [][2]core.Genome{
				{genome.RandomIntVector(n, 9, src), genome.RandomIntVector(n, 9, src)},
				{genome.RandomRealVector(n, -1, 1, src), genome.RandomRealVector(n, -1, 1, src)},
			}
			for _, pr := range pairs {
				ref := rng.New(seed + 1)
				wa, wb := refKPoint(pr[0], pr[1], k, ref)
				c1, c2, r := crossDirty(KPoint{K: k}, pr[0], pr[1], seed+1, &s)
				if !reflect.DeepEqual(c1, wa) || !reflect.DeepEqual(c2, wb) {
					t.Fatalf("KPoint{%d} on %T n=%d differs from the per-gene reference", k, pr[0], n)
				}
				if r.State() != ref.State() {
					t.Fatalf("KPoint{%d} on %T n=%d: RNG state differs", k, pr[0], n)
				}
			}
		}
	}
}
