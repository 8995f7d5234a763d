package genome_test

// An external test package: the word-kernel operators under test import
// genome.

import (
	"math/bits"
	"testing"

	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

// FuzzBitStringOps drives a packed BitString and a naive []bool
// reference model through the same randomized op sequence and demands
// they never disagree. The op stream is a tiny byte-code: each step
// decodes an operation plus operands from the fuzz input, applies it to
// both representations, and checks the observable result and the
// tail-mask invariant (bits at positions >= N in the final word stay
// zero — the contract every whole-word fast path relies on, and the
// bit-sliced fitness kernels too: their gather reads Words whole). Two
// ops go through the ChanceMask word kernels, BitFlip.Mutate and the
// uniform crossover's swap against a mate string, modelled by one Chance
// per gene on a twin stream. Lengths are folded into [1, 200], which
// covers the empty-tail (n%64 == 0), one-word, word-boundary (64/65) and
// multi-word shapes; the seed corpus pins those boundaries plus
// word-straddling Uint windows.
func FuzzBitStringOps(f *testing.F) {
	straddle := []byte{
		0, 60, 1, 0, 63, 1, 0, 64, 1, 0, 69, 1, // Set on both sides of the word 0/1 boundary
		4, 60, 70, // Uint over a window straddling it
		3, 0, 129, // OnesCountRange spanning all three words
		1, 63, 1, 64, // Flip both sides of the boundary
	}
	f.Add(uint16(64), []byte{0, 63, 1, 2, 63, 3, 0, 64})
	f.Add(uint16(65), straddle)
	f.Add(uint16(128), straddle)
	f.Add(uint16(130), straddle)
	f.Add(uint16(1), []byte{0, 0, 1, 1, 0, 2, 0, 0})
	// The ChanceMask kernels on lengths with a partial tail word: flips
	// at the default rate, at 1 and at a half, swaps at 1 and at a half.
	kernels := []byte{5, 0, 5, 255, 6, 255, 5, 128, 6, 128, 0, 63, 1, 0, 64, 1, 6, 40, 5, 255}
	f.Add(uint16(65), kernels)
	f.Add(uint16(100), kernels)
	f.Add(uint16(130), kernels)

	f.Fuzz(func(t *testing.T, rawN uint16, prog []byte) {
		n := int(rawN)%200 + 1
		b := genome.NewBitString(n)
		model := make([]bool, n)
		// The crossover's other parent, the two children it writes, and
		// twin streams: r feeds the kernels, ref the per-gene model.
		mate, c1, c2 := genome.NewBitString(n), genome.NewBitString(n), genome.NewBitString(n)
		mateModel := make([]bool, n)
		r, ref := rng.New(uint64(rawN)), rng.New(uint64(rawN))
		var scratch operators.Scratch

		// next decodes one operand byte, zero when the program runs dry.
		pc := 0
		next := func() int {
			if pc >= len(prog) {
				return 0
			}
			v := int(prog[pc])
			pc++
			return v
		}
		// index folds an operand into a valid gene index.
		index := func() int { return next() % n }
		// window folds two operands into a range [lo, hi) with hi-lo <= 64.
		window := func() (int, int) {
			lo := next() % (n + 1)
			width := next() % 65
			hi := lo + width
			if hi > n {
				hi = n
			}
			return lo, hi
		}
		modelUint := func(lo, hi int) uint64 {
			var v uint64
			for i := lo; i < hi; i++ {
				v <<= 1
				if model[i] {
					v |= 1
				}
			}
			return v
		}

		for step := 0; pc < len(prog); step++ {
			switch op := next() % 7; op {
			case 0: // Set
				i, v := index(), next()&1 == 1
				b.Set(i, v)
				model[i] = v
			case 1: // Flip
				i := index()
				b.Flip(i)
				model[i] = !model[i]
			case 2: // Get
				i := index()
				if got := b.Get(i); got != model[i] {
					t.Fatalf("step %d: Get(%d) = %v, model %v (n=%d)", step, i, got, model[i], n)
				}
			case 3: // OnesCountRange
				lo, hi := window()
				want := 0
				for i := lo; i < hi; i++ {
					if model[i] {
						want++
					}
				}
				if got := b.OnesCountRange(lo, hi); got != want {
					t.Fatalf("step %d: OnesCountRange(%d, %d) = %d, model %d (n=%d)", step, lo, hi, got, want, n)
				}
			case 4: // Uint
				lo, hi := window()
				if got, want := b.Uint(lo, hi), modelUint(lo, hi); got != want {
					t.Fatalf("step %d: Uint(%d, %d) = %d, model %d (n=%d)", step, lo, hi, got, want, n)
				}
			case 5: // BitFlip.Mutate: one XOR of a ChanceMask per word
				m := operators.BitFlip{P: float64(next()) / 255}
				m.Mutate(b, r)
				p := m.P
				if p <= 0 {
					p = 1 / float64(n)
				}
				for i := range model {
					if ref.Chance(p) {
						model[i] = !model[i]
					}
				}
			case 6: // Uniform.CrossInto: copy both parents, swap under a ChanceMask per word
				p := float64(next()) / 255
				operators.Uniform{P: p}.CrossInto(b, mate, c1, c2, r, &scratch)
				b, mate, c1, c2 = c1, c2, b, mate
				if p <= 0 {
					p = 0.5 // Uniform's default
				}
				for i := range model {
					if ref.Chance(p) {
						model[i], mateModel[i] = mateModel[i], model[i]
					}
				}
			}
			for _, s := range []*genome.BitString{b, mate} {
				if tail := s.Words[len(s.Words)-1] &^ genome.TailMask(n); tail != 0 {
					t.Fatalf("step %d: tail-mask invariant broken, stray bits %064b (n=%d)", step, tail, n)
				}
			}
		}

		// Final full-state cross-checks: every gene of both strings and
		// the whole-word popcount.
		ones := 0
		for i, v := range model {
			if b.Get(i) != v || mate.Get(i) != mateModel[i] {
				t.Fatalf("final: gene %d is %v/%v, model %v/%v (n=%d)", i, b.Get(i), mate.Get(i), v, mateModel[i], n)
			}
			if v {
				ones++
			}
		}
		if got := b.OnesCount(); got != ones {
			t.Fatalf("final: OnesCount = %d, model %d (n=%d)", got, ones, n)
		}
		var sum int
		for _, w := range b.Words {
			sum += bits.OnesCount64(w)
		}
		if sum != ones {
			t.Fatalf("final: raw word popcount %d disagrees with model %d (n=%d)", sum, ones, n)
		}
	})
}
