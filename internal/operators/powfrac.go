//go:build !s390x

package operators

import "math"

// powFrac is math.Pow(x, y) for the bases and exponents SBX and
// polynomial mutation use: x ≥ 0 and y = 1/(η+1). For 0 < y < ½ and
// x ≥ 0, math.Pow's pure-Go body evaluates exactly Exp(y·Log(x)) — the
// y = ½ and integer-part branches do not apply and its closing
// Ldexp(·, 0) is the identity — after a special-case switch and a
// Modf/Frexp that decide nothing here; for x = ±0, 1 and +Inf the
// expression returns what the switch does. So this is math.Pow bit for
// bit, without the wrapper (TestPowFracIsPow). Every other argument,
// NaN and negative bases included, goes to math.Pow. s390x, whose
// math.Pow is assembly, uses powfrac_s390x.go.
func powFrac(x, y float64) float64 {
	if 0 < y && y < 0.5 && x >= 0 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}
