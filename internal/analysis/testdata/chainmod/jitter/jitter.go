// Package jitter launders math/rand behind an innocent-looking API: the
// import and the use are norawrand findings here, and every call into
// Jitter from another package is one there.
package jitter

import "math/rand"

// Jitter perturbs v by ±1 using the process-global source.
func Jitter(v int) int { return v + rand.Intn(3) - 1 }
