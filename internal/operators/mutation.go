package operators

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Mutator modifies a genome in place. Callers are responsible for
// invalidating the owning individual's fitness.
type Mutator interface {
	// Name identifies the mutator in tables and logs.
	Name() string
	// Mutate modifies g in place. It panics if the genome type is
	// unsupported.
	Mutate(g core.Genome, r *rng.Source)
}

// BitFlip flips each bit independently with probability P. With P <= 0 the
// canonical 1/Len rate is used.
type BitFlip struct {
	// P is the per-bit flip probability; <= 0 selects 1/Len.
	P float64
}

// Name implements Mutator.
func (m BitFlip) Name() string { return fmt.Sprintf("bitflip(%.3g)", m.P) }

// Mutate implements Mutator.
func (m BitFlip) Mutate(g core.Genome, r *rng.Source) {
	b, ok := g.(*genome.BitString)
	if !ok {
		panic(fmt.Sprintf("operators: BitFlip applied to %T", g))
	}
	// One Chance(p) draw per gene in gene order — the sequence the
	// recorded sweep results pin — taken 64 at a time and applied as one
	// XOR per word.
	m.maskDraws(b.N).flip(b, r)
}

// maskDraws is BitFlip's declaration on n genes (draws.go): P, or the
// canonical 1/n when P <= 0.
func (m BitFlip) maskDraws(n int) MaskDraws {
	p := m.P
	if p <= 0 {
		p = 1 / float64(n)
	}
	return MaskDraws{P: p, N: n}
}

// Gaussian perturbs each real gene with probability P by N(0, Sigma),
// clamping the result to the gene's bounds.
type Gaussian struct {
	// P is the per-gene mutation probability; <= 0 selects 1/Len.
	P float64
	// Sigma is the perturbation standard deviation; <= 0 selects 10% of
	// the gene's range.
	Sigma float64
}

// Name implements Mutator.
func (m Gaussian) Name() string { return fmt.Sprintf("gauss(p=%.3g,σ=%.3g)", m.P, m.Sigma) }

// Mutate implements Mutator.
func (m Gaussian) Mutate(g core.Genome, r *rng.Source) {
	v, ok := g.(*genome.RealVector)
	if !ok {
		panic(fmt.Sprintf("operators: Gaussian applied to %T", g))
	}
	p := m.P
	if p <= 0 {
		p = 1 / float64(len(v.Genes))
	}
	for i := range v.Genes {
		if !r.Chance(p) {
			continue
		}
		sigma := m.Sigma
		if sigma <= 0 {
			sigma = 0.1 * (v.Hi[i] - v.Lo[i])
		}
		v.Genes[i] += sigma * r.NormFloat64()
	}
	v.Clamp()
}

// Polynomial is polynomial mutation (Deb) for real vectors, the standard
// companion of SBX crossover.
type Polynomial struct {
	// P is the per-gene mutation probability; <= 0 selects 1/Len.
	P float64
	// Eta is the distribution index; larger values mean smaller
	// perturbations. The canonical default is 20.
	Eta float64
}

// Name implements Mutator.
func (m Polynomial) Name() string { return fmt.Sprintf("poly(p=%.3g,η=%.3g)", m.P, m.eta()) }

func (m Polynomial) eta() float64 {
	if m.Eta <= 0 {
		return 20
	}
	return m.Eta
}

// Mutate implements Mutator.
func (m Polynomial) Mutate(g core.Genome, r *rng.Source) {
	v, ok := g.(*genome.RealVector)
	if !ok {
		panic(fmt.Sprintf("operators: Polynomial applied to %T", g))
	}
	p := m.P
	if p <= 0 {
		p = 1 / float64(len(v.Genes))
	}
	e := 1 / (m.eta() + 1)
	for i := range v.Genes {
		if !r.Chance(p) {
			continue
		}
		lo, hi := v.Lo[i], v.Hi[i]
		span := hi - lo
		if span <= 0 {
			continue
		}
		u := r.Float64()
		var delta float64
		if u < 0.5 {
			delta = powFrac(2*u, e) - 1
		} else {
			delta = 1 - powFrac(2*(1-u), e)
		}
		v.Genes[i] += delta * span
	}
	v.Clamp()
}

// UniformReset resets each gene independently with probability P to a
// uniformly random value in its domain (real and integer vectors).
type UniformReset struct {
	// P is the per-gene reset probability; <= 0 selects 1/Len.
	P float64
}

// Name implements Mutator.
func (m UniformReset) Name() string { return fmt.Sprintf("reset(%.3g)", m.P) }

// Mutate implements Mutator.
func (m UniformReset) Mutate(g core.Genome, r *rng.Source) {
	switch v := g.(type) {
	case *genome.RealVector:
		p := m.P
		if p <= 0 {
			p = 1 / float64(len(v.Genes))
		}
		for i := range v.Genes {
			if r.Chance(p) {
				v.Genes[i] = r.Range(v.Lo[i], v.Hi[i])
			}
		}
	case *genome.IntVector:
		p := m.P
		if p <= 0 {
			p = 1 / float64(len(v.Genes))
		}
		for i := range v.Genes {
			if r.Chance(p) {
				v.Genes[i] = r.Intn(v.Card)
			}
		}
	default:
		panic(fmt.Sprintf("operators: UniformReset applied to %T", g))
	}
}

// Swap exchanges two distinct random positions; valid for any vector-like
// genome and closed over permutations.
type Swap struct{}

// Name implements Mutator.
func (Swap) Name() string { return "swap" }

// Mutate implements Mutator.
func (Swap) Mutate(g core.Genome, r *rng.Source) {
	n := g.Len()
	if n < 2 {
		return
	}
	i := r.Intn(n)
	j := r.Intn(n - 1)
	if j >= i {
		j++
	}
	switch v := g.(type) {
	case *genome.Permutation:
		v.Perm[i], v.Perm[j] = v.Perm[j], v.Perm[i]
	case *genome.IntVector:
		v.Genes[i], v.Genes[j] = v.Genes[j], v.Genes[i]
	case *genome.RealVector:
		v.Genes[i], v.Genes[j] = v.Genes[j], v.Genes[i]
	case *genome.BitString:
		bi, bj := v.Get(i), v.Get(j)
		v.Set(i, bj)
		v.Set(j, bi)
	default:
		panic(fmt.Sprintf("operators: Swap applied to %T", g))
	}
}

// Inversion reverses a random slice of a permutation (2-opt style move,
// the classic TSP mutation).
type Inversion struct{}

// Name implements Mutator.
func (Inversion) Name() string { return "inversion" }

// Mutate implements Mutator.
func (Inversion) Mutate(g core.Genome, r *rng.Source) {
	p := mustPerm(g)
	n := p.Len()
	if n < 2 {
		return
	}
	i, j := r.Intn(n), r.Intn(n)
	if i > j {
		i, j = j, i
	}
	for i < j {
		p.Perm[i], p.Perm[j] = p.Perm[j], p.Perm[i]
		i++
		j--
	}
}

// Scramble shuffles a random slice of a permutation.
type Scramble struct{}

// Name implements Mutator.
func (Scramble) Name() string { return "scramble" }

// Mutate implements Mutator.
func (Scramble) Mutate(g core.Genome, r *rng.Source) {
	p := mustPerm(g)
	n := p.Len()
	if n < 2 {
		return
	}
	i, j := r.Intn(n), r.Intn(n)
	if i > j {
		i, j = j, i
	}
	seg := p.Perm[i : j+1]
	r.ShuffleInts(seg)
}

// Insertion removes a random item and reinserts it at a random position
// (the "or-opt" move for permutations).
type Insertion struct{}

// Name implements Mutator.
func (Insertion) Name() string { return "insertion" }

// Mutate implements Mutator.
func (Insertion) Mutate(g core.Genome, r *rng.Source) {
	p := mustPerm(g)
	n := p.Len()
	if n < 2 {
		return
	}
	from := r.Intn(n)
	to := r.Intn(n)
	if from == to {
		return
	}
	v := p.Perm[from]
	if from < to {
		copy(p.Perm[from:to], p.Perm[from+1:to+1])
	} else {
		copy(p.Perm[to+1:from+1], p.Perm[to:from])
	}
	p.Perm[to] = v
}
