package operators

import (
	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// MaskDraws declares an operator whose draws on a bit string are one
// Chance(P) per gene over its N genes, taken in gene order as
// rng.ChanceMask words: word w covers Width(w) genes, 64 but for a
// shorter tail. Uniform crossover applies each word to its two
// children with SwapWord, bit-flip mutation to its child with FlipWord.
// The operators' own bodies draw and apply through it, and so does
// ga.Generational when it breeds up to sixteen pairs side by side in
// rng.Lanes, so the two cannot draw apart.
type MaskDraws struct {
	// P is the per-gene probability, as ChanceMask takes it.
	P float64
	// N is the number of genes.
	N int
}

// FixedDraws returns op's declaration on genomes shaped like g,
// for op a Crossover or a Mutator, or nil for none (no words). ok is
// false for every other operator and genome: those whose draws depend
// on the draws themselves (Intn's rejection loop, the polar method, a
// draw behind a coin) and those not declared here.
// TestFixedDrawsMatchStream holds each declaration to the stream.
func FixedDraws(op any, g core.Genome) (d MaskDraws, ok bool) {
	if op == nil {
		return MaskDraws{}, true
	}
	b, isBits := g.(*genome.BitString)
	if !isBits {
		return MaskDraws{}, false
	}
	switch op := op.(type) {
	case Uniform:
		return op.maskDraws(b.N), true
	case BitFlip:
		return op.maskDraws(b.N), true
	}
	return MaskDraws{}, false
}

// Draws returns how many draws one application takes: N, or none when
// ChanceMask draws nothing, for P <= 0 or P >= 1 (a NaN P draws: every
// compare fails).
func (d MaskDraws) Draws() int {
	if d.P <= 0 || d.P >= 1 {
		return 0
	}
	return d.N
}

// Width returns the number of genes mask word w covers.
func (d MaskDraws) Width(w int) int { return min(64, d.N-w<<6) }

// SwapWord exchanges the bits that m sets between words x and y. The
// XOR of two tail-invariant words has a zero tail, so the swap keeps
// the tail-mask invariant without masking.
func SwapWord(x, y *uint64, m uint64) {
	t := (*x ^ *y) & m
	*x ^= t
	*y ^= t
}

// FlipWord flips the bits of x that m sets. ChanceMask sets no bit at or
// past its count, so the tail-mask invariant holds without masking.
func FlipWord(x *uint64, m uint64) { *x ^= m }

// swap draws the declared words on r and swaps them between x and y.
func (d MaskDraws) swap(x, y *genome.BitString, r *rng.Source) {
	for w := range x.Words {
		SwapWord(&x.Words[w], &y.Words[w], r.ChanceMask(d.P, d.Width(w)))
	}
}

// flip draws the declared words on r and flips them in x.
func (d MaskDraws) flip(x *genome.BitString, r *rng.Source) {
	for w := range x.Words {
		FlipWord(&x.Words[w], r.ChanceMask(d.P, d.Width(w)))
	}
}
