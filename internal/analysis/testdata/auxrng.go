// Package rng is a fixture stand-in for the module's stream package:
// isRNGStream matches by package and type name ("rng".Source), so
// fixture groups get module-style RNG streams — with real call edges
// for the summary engine to propagate through — without importing the
// production package. Checked as pga/internal/fixrng.
package rng

// Source is a minimal splittable LCG stream.
type Source struct{ state uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 advances the stream.
func (s *Source) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

// Intn draws a value in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 draws a value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Chance draws one outcome of probability p.
func (s *Source) Chance(p float64) bool { return s.Float64() < p }

// ChanceMask packs n consecutive Chance(p) outcomes LSB-first: the same
// n draws, taken in bulk.
func (s *Source) ChanceMask(p float64, n int) uint64 {
	var m uint64
	for i := 0; i < n; i++ {
		if s.Float64() < p {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Split derives an independent child stream.
func (s *Source) Split() *Source { return &Source{state: s.Uint64()} }
