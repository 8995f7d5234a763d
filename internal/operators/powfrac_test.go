package operators

import (
	"math"
	"testing"

	"pga/internal/rng"
)

// TestPowFracIsPow: powFrac is math.Pow bit for bit over every base SBX
// and polynomial mutation raise to 1/(η+1) — 2u ∈ [0,1],
// 1/(2(1−u)) ∈ [1, 2⁵³] and 2(1−u) ∈ (0,1], as a linear grid on [0,1], a
// grid of 1024 mantissas in every binade from 2⁻⁶⁰ to 2⁵³ and the three
// expressions over random draws — plus the special cases, for exponents
// on both sides of ½. CI also runs it under GOARCH=386.
func TestPowFracIsPow(t *testing.T) {
	var xs []float64
	const lin = 1 << 16
	for i := 0; i <= lin; i++ {
		xs = append(xs, float64(i)/lin)
	}
	for e := -60; e <= 53; e++ {
		for j := 0; j < 1024; j++ {
			xs = append(xs, math.Ldexp(1+float64(j)/1024, e))
		}
	}
	r := rng.New(7)
	for i := 0; i < 1<<15; i++ {
		u := r.Float64()
		xs = append(xs, 2*u, 2*(1-u))
		if u > 0.5 {
			xs = append(xs, 1/(2*(1-u)))
		}
	}
	xs = append(xs, 0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.Ldexp(1, -1060), math.Ldexp(1, -1023)-math.SmallestNonzeroFloat64,
		math.MaxFloat64, -1, -0.5)
	for _, eta := range []float64{0.5, 1, 1.0001, 1.5, 2, 15, 20, 100} {
		y := 1 / (eta + 1)
		for _, x := range xs {
			got, want := powFrac(x, y), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("η=%v: powFrac(%v, %v) = %v, math.Pow = %v", eta, x, y, got, want)
			}
		}
	}
}
