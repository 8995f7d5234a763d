package operators

import (
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// TestFixedDrawsMatchStream holds every declaration to the stream's real
// advance: applying the operator moves a stream exactly as far as the
// declared number of Uint64 calls, its words cover its genes, on lengths around the word size and
// on every probability branch (≤ 0 and the default, (0, 1), ≥ 1, NaN).
// What FixedDraws does not declare must say so.
func TestFixedDrawsMatchStream(t *testing.T) {
	ps := []float64{0, -1, 1e-9, 0.1, 0.3, 0.5, 1 - 1e-12, 1, 1.5, math.NaN(), math.Inf(1)}
	seed := uint64(0)
	for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 130, 1024} {
		for _, p := range ps {
			for _, op := range []any{nil, Uniform{P: p}, BitFlip{P: p}} {
				seed++
				a, b := genome.RandomBitString(n, rng.New(seed)), genome.RandomBitString(n, rng.New(^seed))
				decl, ok := FixedDraws(op, a)
				if !ok {
					t.Fatalf("%#v on %d bits: not declared", op, n)
				}
				d := decl.Draws()
				if op != nil && decl.N != n {
					t.Fatalf("%#v on %d bits: declared %d genes", op, n, decl.N)
				}
				got, want := rng.New(seed), rng.New(seed)
				switch op := op.(type) {
				case Uniform:
					op.CrossInto(a, b, a.Clone(), b.Clone(), got, &Scratch{})
				case BitFlip:
					op.Mutate(a, got)
				}
				for i := 0; i < d; i++ {
					want.Uint64()
				}
				if got.State() != want.State() {
					t.Fatalf("%#v on %d bits: declared %d draws, the stream moved otherwise", op, n, d)
				}
			}
		}
	}
	bits := genome.RandomBitString(64, rng.New(1))
	reals := genome.RandomRealVector(8, -1, 1, rng.New(2))
	for _, c := range []struct {
		op any
		g  core.Genome
	}{
		{OnePoint{}, bits}, {KPoint{K: 3}, bits}, {UniformWord{}, bits}, {BlockFlip{}, bits},
		{Swap{}, bits},
		{Uniform{}, reals}, {SBX{}, reals}, {Gaussian{}, reals},
	} {
		if d, ok := FixedDraws(c.op, c.g); ok {
			t.Errorf("%#v on %T: declared %+v, want undeclared", c.op, c.g, d)
		}
	}
}
