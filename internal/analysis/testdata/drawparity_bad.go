// Fixture for drawparity (bad): a desynced allocating/in-place pair —
// Cross draws once per gene while CrossInto draws once total — a pair
// split between the per-gene Chance loop and the bulk ChanceMask kernel,
// and a pair whose second member was deleted without updating the
// registry.
// Checked as pga/internal/pairfix; the test wires these names in via a
// custom DrawParityConfig.
package fixture

import rng "pga/internal/fixrng"

// Vec is a fixture vector genome.
type Vec struct{ Genes []float64 }

// Cross draws once per gene: shape n×Float64.
func Cross(a, b *Vec, r *rng.Source) *Vec { // want drawparity
	out := &Vec{Genes: make([]float64, len(a.Genes))}
	for i := range a.Genes {
		if r.Float64() < 0.5 {
			out.Genes[i] = a.Genes[i]
		} else {
			out.Genes[i] = b.Genes[i]
		}
	}
	return out
}

// CrossInto forgot the per-gene loop and draws once: shape 1×Float64,
// diverging from its declared partner.
func CrossInto(dst, a, b *Vec, r *rng.Source) { // want drawparity
	cut := r.Float64()
	for i := range dst.Genes {
		if float64(i) < cut*float64(len(dst.Genes)) {
			dst.Genes[i] = a.Genes[i]
		} else {
			dst.Genes[i] = b.Genes[i]
		}
	}
}

// Bits is a packed fixture genome.
type Bits struct {
	Words []uint64
	N     int
}

// Flip is the per-gene loop: shape N×Chance.
func Flip(b *Bits, p float64, r *rng.Source) { // want drawparity
	for i := 0; i < b.N; i++ {
		if r.Chance(p) {
			b.Words[i>>6] ^= 1 << (uint(i) & 63)
		}
	}
}

// FlipInto takes the same draws 64 at a time: shape w×ChanceMask. The
// two streams agree at run time, but the prover compares draw kinds,
// not their semantics — a pair stays provable only while both members
// run one shared kernel.
func FlipInto(b *Bits, p float64, r *rng.Source) { // want drawparity
	for w := range b.Words {
		b.Words[w] ^= r.ChanceMask(p, 64)
	}
}

// Spin's declared partner SpinInto no longer exists: the dangling
// registry entry is reported at the surviving member.
func Spin(r *rng.Source, n int) int { // want drawparity
	return r.Intn(n)
}
