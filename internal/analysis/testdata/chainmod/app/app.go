// Package app is spotless on its own — no forbidden import, no rand
// selector. Its one violation is the call chain that leaves the
// package: `pgalint ./app` sees it only if the call graph covers the
// whole module, not just the packages the pattern selects.
package app

import "chainmod/jitter"

// Perturb looks deterministic from this package alone.
func Perturb(v int) int { return jitter.Jitter(v) }
