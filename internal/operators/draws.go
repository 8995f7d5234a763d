package operators

import (
	"pga/internal/core"
	"pga/internal/genome"
)

// FixedDraws reports how many draws op — a Crossover or a Mutator, or nil
// for none — takes from its stream in one application to genomes shaped
// like g, for the operators whose count is fixed by that shape. ok is
// false for every other operator: those whose count depends on the draws
// themselves (Intn's rejection loop, the polar method, a draw behind a
// coin) and those not declared here. ga.Generational breeds on two
// workers only when both its operators declare, and checks every pair
// against the count, so a wrong count costs speed, never bytes;
// TestFixedDrawsMatchStream holds each declaration to the stream.
func FixedDraws(op any, g core.Genome) (draws int, ok bool) {
	if op == nil {
		return 0, true
	}
	b, isBits := g.(*genome.BitString)
	if !isBits {
		return 0, false
	}
	var p float64
	switch op := op.(type) {
	case Uniform:
		p = op.p()
	case BitFlip:
		p = op.P
		if p <= 0 {
			p = 1 / float64(b.N)
		}
	default:
		return 0, false
	}
	// Both kernels draw one ChanceMask bit per gene, and ChanceMask draws
	// nothing for p ≤ 0 or p ≥ 1 (a NaN p draws: every compare fails).
	if p <= 0 || p >= 1 {
		return 0, true
	}
	return b.N, true
}
