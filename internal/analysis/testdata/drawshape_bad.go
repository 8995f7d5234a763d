// Fixture for drawshape (bad): operator-role methods and a hot-listed
// function whose RNG draws execute only under conditions that read
// genome/population content. Checked as pga/internal/operators so the
// free CrossInto lands on the hiddenalloc hot list.
package fixture

import (
	rng "pga/internal/fixrng"

	fixgen "pga/internal/fixgen"
)

// Genome carries content fields so conditions over them taint.
type Genome struct {
	Genes   []float64
	Words   []uint64
	Fitness float64
}

// Individual and Population mirror the engine's shapes.
type Individual struct{ Fitness float64 }

// Population is a fixture population.
type Population struct{ Members []*Individual }

// Direction satisfies the Select role's second parameter.
type Direction int

// BadMut draws only when the genome is already fit: the draw count
// depends on content, so seeded runs diverge with population state.
type BadMut struct{}

// Mutate matches the Mutate role.
func (BadMut) Mutate(g Genome, r *rng.Source) {
	if g.Fitness > 0 {
		i := r.Intn(len(g.Genes)) // want drawshape
		g.Genes[i] = 0
	}
}

// BadFlip takes its draws in bulk, but only for words that already hold
// a set bit: a content guard around ChanceMask skips 64 draws at a time
// and is reported exactly like a per-gene guard.
type BadFlip struct{}

// Mutate matches the Mutate role.
func (BadFlip) Mutate(g Genome, r *rng.Source) {
	for w := range g.Words {
		if g.Words[w] != 0 {
			g.Words[w] ^= r.ChanceMask(0.5, 64) // want drawshape
		}
	}
}

// BadSel draws a fallback index only when the fitness mass is
// degenerate — the classic content-dependent draw-kind switch.
type BadSel struct{}

// Select matches the Select role.
func (BadSel) Select(pop *Population, d Direction, r *rng.Source) int {
	total := 0.0
	for _, m := range pop.Members {
		total += m.Fitness
	}
	if total == 0 {
		return r.Intn(len(pop.Members)) // want drawshape
	}
	return 0
}

// CrossInto is hot-listed (pga/internal/operators.CrossInto): a draw
// guarded by a fitness comparison is content-dependent even though the
// function matches no role shape.
func CrossInto(a, b Genome, r *rng.Source) float64 {
	if a.Fitness > b.Fitness {
		return float64(r.Uint64()) // want drawshape
	}
	return 0
}

// TailSel's content-dependent draw lives in another package: the folded
// shape carries fixgen.PickTail's draw position into this package's
// report (the marker sits in auxtail.go).
type TailSel struct{ Q *fixgen.Queue }

// Select matches the Select role and reaches the tainted draw through a
// cross-package call.
func (s TailSel) Select(pop *Population, d Direction, r *rng.Source) int {
	_ = pop
	return fixgen.PickTail(s.Q, r)
}
