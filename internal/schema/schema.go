// Package schema implements schema analysis for binary-coded GAs: parsing,
// matching and population-proportion tracking.
//
// Alba & Troya (2002) — reviewed in §2 of the survey — compared
// steady-state, generational and cellular GAs partly by their "schema
// processing rates"; experiment E5 uses this package to reproduce that
// comparison through each schema's proportion growth.
package schema

import (
	"fmt"
	"strings"

	"pga/internal/core"
	"pga/internal/genome"
)

// Wildcard marks a don't-care position in a schema.
const Wildcard int8 = -1

// Schema is a hyperplane of the binary search space: a pattern of fixed
// bits and wildcards.
type Schema struct {
	// Pattern holds 0, 1, or Wildcard per locus.
	Pattern []int8
}

// Parse builds a Schema from a string of '0', '1' and '*'.
func Parse(s string) (Schema, error) {
	p := make([]int8, len(s))
	for i, c := range s {
		switch c {
		case '0':
			p[i] = 0
		case '1':
			p[i] = 1
		case '*':
			p[i] = Wildcard
		default:
			return Schema{}, fmt.Errorf("schema: invalid character %q at %d", c, i)
		}
	}
	return Schema{Pattern: p}, nil
}

// MustParse is Parse that panics on error (for literals in tests and
// experiments).
func MustParse(s string) Schema {
	sc, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sc
}

// String implements fmt.Stringer.
func (s Schema) String() string {
	var sb strings.Builder
	for _, p := range s.Pattern {
		switch p {
		case Wildcard:
			sb.WriteByte('*')
		case 0:
			sb.WriteByte('0')
		default:
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Len returns the schema length.
func (s Schema) Len() int { return len(s.Pattern) }

// Matches reports whether b is an instance of the schema. It panics on
// length mismatch.
func (s Schema) Matches(b *genome.BitString) bool {
	if b.Len() != len(s.Pattern) {
		panic("schema: genome length mismatch")
	}
	for i, p := range s.Pattern {
		if p == Wildcard {
			continue
		}
		if (p == 1) != b.Get(i) {
			return false
		}
	}
	return true
}

// Count returns the number of population members matching the schema
// (non-BitString genomes are skipped).
func Count(pop *core.Population, s Schema) int {
	n := 0
	for _, ind := range pop.Members {
		if b, ok := ind.Genome.(*genome.BitString); ok && s.Matches(b) {
			n++
		}
	}
	return n
}

// Proportion returns Count/pop.Len() (0 for an empty population).
func Proportion(pop *core.Population, s Schema) float64 {
	if pop.Len() == 0 {
		return 0
	}
	return float64(Count(pop, s)) / float64(pop.Len())
}

// Tracker records the population proportion of a set of schemata over
// generations, to compare schema processing rates between engines.
type Tracker struct {
	Schemata []Schema
	// History[k][g] is schema k's proportion at generation g.
	History [][]float64
}

// NewTracker creates a tracker for the given schemata.
func NewTracker(schemata ...Schema) *Tracker {
	return &Tracker{
		Schemata: schemata,
		History:  make([][]float64, len(schemata)),
	}
}

// Observe appends the current proportions of all tracked schemata.
func (t *Tracker) Observe(pop *core.Population) {
	for k, s := range t.Schemata {
		t.History[k] = append(t.History[k], Proportion(pop, s))
	}
}

// GrowthRate returns the mean per-generation multiplicative growth of
// schema k's proportion over the observed history, ignoring generations
// where the proportion was zero. Returns 1 when undefined.
func (t *Tracker) GrowthRate(k int) float64 {
	h := t.History[k]
	var ratios []float64
	for i := 1; i < len(h); i++ {
		if h[i-1] > 0 && h[i] > 0 {
			ratios = append(ratios, h[i]/h[i-1])
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	return sum / float64(len(ratios))
}
