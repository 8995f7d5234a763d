package operators

import "math"

// powFrac is math.Pow: on s390x that is assembly, so powfrac.go's
// expression is not what it computes.
func powFrac(x, y float64) float64 { return math.Pow(x, y) }
