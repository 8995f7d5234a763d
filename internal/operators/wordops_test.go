package operators

import (
	"math"
	"slices"
	"testing"

	"pga/internal/genome"
	"pga/internal/rng"
)

// tailBitsClean reports whether every storage bit beyond b.Len() is zero
// — the packed-layout invariant the word operators must preserve.
func tailBitsClean(b *genome.BitString) bool {
	if b.N == 0 {
		return true
	}
	return b.Words[len(b.Words)-1]&^genome.TailMask(b.N) == 0
}

func TestUniformWordExchangesPositions(t *testing.T) {
	// Per position, the child pair must hold exactly the parent pair's
	// values — uniform crossover permutes within columns, never across.
	r := rng.New(1)
	a := genome.RandomBitString(130, r)
	b := genome.RandomBitString(130, r)
	ga, gb := cross(UniformWord{}, a, b, r)
	ca, cb := ga.(*genome.BitString), gb.(*genome.BitString)
	for i := 0; i < 130; i++ {
		okA := ca.Get(i) == a.Get(i) || ca.Get(i) == b.Get(i)
		if !okA || (ca.Get(i) == a.Get(i)) != (cb.Get(i) == b.Get(i)) && a.Get(i) != b.Get(i) {
			t.Fatalf("position %d not a pairwise exchange", i)
		}
	}
	if !tailBitsClean(ca) || !tailBitsClean(cb) {
		t.Fatal("UniformWord dirtied tail bits")
	}
}

func TestUniformWordExchangeRate(t *testing.T) {
	// All-ones vs all-zeros parents: each child-1 zero marks an exchange;
	// the rate over many positions must be near 1/2.
	n := 4096
	a := genome.NewBitString(n)
	for i := 0; i < n; i++ {
		a.Set(i, true)
	}
	b := genome.NewBitString(n)
	ga, gb := cross(UniformWord{}, a, b, rng.New(2))
	ca, cb := ga.(*genome.BitString), gb.(*genome.BitString)
	swapped := n - ca.OnesCount()
	if swapped < n*4/10 || swapped > n*6/10 {
		t.Fatalf("exchange rate %d/%d far from 1/2", swapped, n)
	}
	if ca.OnesCount()+cb.OnesCount() != n {
		t.Fatal("exchange not complementary")
	}
}

func TestWordCrossoversPreserveParents(t *testing.T) {
	r := rng.New(40)
	a := genome.RandomBitString(100, r)
	b := genome.RandomBitString(100, r)
	ac, bc := a.Clone().(*genome.BitString), b.Clone().(*genome.BitString)
	cross(UniformWord{}, a, b, r)
	cross(KPoint{K: 2}, a, b, r)
	if !slices.Equal(a.Words, ac.Words) || !slices.Equal(b.Words, bc.Words) {
		t.Fatal("word crossover mutated a parent")
	}
}

func TestBlockFlipRate(t *testing.T) {
	// Over many genes the flip rate must approximate 2^-K.
	for _, k := range []int{1, 3, 6} {
		n := 1 << 16
		b := genome.NewBitString(n)
		BlockFlip{K: k}.Mutate(b, rng.New(uint64(50+k)))
		got := float64(b.OnesCount()) / float64(n)
		want := math.Pow(2, -float64(k))
		if math.Abs(got-want) > want/2+0.002 {
			t.Fatalf("K=%d: flip rate %v, want ~%v", k, got, want)
		}
	}
}

func TestBlockFlipTailAndEdgeCases(t *testing.T) {
	// Odd length: tail bits must stay zero through many mutations.
	b := genome.NewBitString(70)
	r := rng.New(60)
	for i := 0; i < 50; i++ {
		BlockFlip{}.Mutate(b, r)
		if !tailBitsClean(b) {
			t.Fatalf("iteration %d: tail bits set", i)
		}
	}
	// Zero-length genome is a no-op, not a panic.
	BlockFlip{}.Mutate(genome.NewBitString(0), r)
}

func TestBlockFlipDrawCountIndependentOfContent(t *testing.T) {
	// The mask draws must not depend on genome content, or lockstep
	// engines (cellular sweeps) would diverge by individual.
	r1, r2 := rng.New(70), rng.New(70)
	zero := genome.NewBitString(100)
	ones := genome.NewBitString(100)
	for i := 0; i < 100; i++ {
		ones.Set(i, true)
	}
	BlockFlip{}.Mutate(zero, r1)
	BlockFlip{}.Mutate(ones, r2)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("draw count depends on genome content")
	}
}

func TestWordOperatorTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-BitString operand")
		}
	}()
	BlockFlip{}.Mutate(genome.NewRealVector(4, 0, 1), rng.New(1))
}
