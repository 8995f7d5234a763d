package operators

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Crossover recombines two parent genomes into two children. Parents are
// never modified; children are fresh genomes.
type Crossover interface {
	// Name identifies the crossover in tables and logs.
	Name() string
	// Cross returns two offspring of a and b. It panics if the genome type
	// is unsupported (a programming error, not a runtime condition).
	Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome)
}

// OnePoint is classic single-point crossover for bit strings, integer
// vectors and real vectors.
type OnePoint struct{}

// Name implements Crossover.
func (OnePoint) Name() string { return "1-point" }

// Cross implements Crossover.
func (OnePoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	return KPoint{K: 1}.Cross(a, b, r)
}

// TwoPoint is two-point crossover.
type TwoPoint struct{}

// Name implements Crossover.
func (TwoPoint) Name() string { return "2-point" }

// Cross implements Crossover.
func (TwoPoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	return KPoint{K: 2}.Cross(a, b, r)
}

// KPoint is k-point crossover: the genomes are cut at K distinct interior
// points and alternating segments are exchanged.
type KPoint struct {
	// K is the number of cut points; it is capped at Len-1.
	K int
}

// Name implements Crossover.
func (k KPoint) Name() string { return fmt.Sprintf("%d-point", k.K) }

// Cross implements Crossover.
func (k KPoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	if b.Len() != a.Len() {
		panic("operators: KPoint parents of different lengths")
	}
	ca, cb := a.Clone(), b.Clone()
	kpointSwap(ca, cb, k.K, r, &Scratch{})
	return ca, cb
}

// kpointSwap exchanges the alternating segments of two equal-length
// children between k cut points (capped to [1, Len-1]) — the one kernel
// behind Cross and CrossInto of the whole k-point family, so the members
// of each pair cannot drift apart. The cuts are Sample draws over
// [1, n-1]; their parity prefix is the swap mask (gene i is exchanged
// when an odd number of cuts lie at or before it), built a word at a
// time. Bit strings then swap 64 genes per XOR — the mask's bits past N
// meet the zero tails of x^y, so the tail-mask invariant holds unmasked —
// while the other classes walk the same mask gene by gene.
func kpointSwap(c1, c2 core.Genome, k int, r *rng.Source, s *Scratch) {
	n := c1.Len()
	if n < 2 {
		return
	}
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	mask := s.words((n + 63) >> 6)
	for _, c := range r.SampleInto(s.ints(n-1), k) {
		mask[(c+1)>>6] ^= 1 << (uint(c+1) & 63)
	}
	var carry uint64 // all ones while the running parity is odd
	for w, m := range mask {
		m ^= m << 1
		m ^= m << 2
		m ^= m << 4
		m ^= m << 8
		m ^= m << 16
		m ^= m << 32
		m ^= carry
		carry = -(m >> 63)
		mask[w] = m
	}
	if x, ok := c1.(*genome.BitString); ok {
		y := c2.(*genome.BitString)
		for w, m := range mask {
			d := (x.Words[w] ^ y.Words[w]) & m
			x.Words[w] ^= d
			y.Words[w] ^= d
		}
		return
	}
	for i := 0; i < n; i++ {
		if mask[i>>6]>>(uint(i)&63)&1 == 1 {
			swapGene(c1, c2, i)
		}
	}
}

// Uniform is uniform crossover: each gene is exchanged independently with
// probability P.
type Uniform struct {
	// P is the per-gene exchange probability; the canonical default is 0.5.
	P float64
}

// Name implements Crossover.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%.2g)", u.p()) }

func (u Uniform) p() float64 {
	if u.P <= 0 || u.P > 1 {
		return 0.5
	}
	return u.P
}

// Cross implements Crossover.
func (u Uniform) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	if b.Len() != a.Len() {
		panic("operators: Uniform parents of different lengths")
	}
	ca, cb := a.Clone(), b.Clone()
	uniformSwap(ca, cb, u.p(), r)
	return ca, cb
}

// uniformSwap exchanges each gene of two equal-length children with
// probability p — the one kernel behind Uniform.Cross and CrossInto. The
// draws are one Chance(p) per gene in gene order for every genome class;
// bit strings take them 64 at a time as a ChanceMask and swap a word per
// XOR (x^y has a zero tail, so the tail-mask invariant needs no masking).
func uniformSwap(c1, c2 core.Genome, p float64, r *rng.Source) {
	n := c1.Len()
	if x, ok := c1.(*genome.BitString); ok {
		y := c2.(*genome.BitString)
		for w := range x.Words {
			d := (x.Words[w] ^ y.Words[w]) & r.ChanceMask(p, min(64, n-w<<6))
			x.Words[w] ^= d
			y.Words[w] ^= d
		}
		return
	}
	for i := 0; i < n; i++ {
		if r.Chance(p) {
			swapGene(c1, c2, i)
		}
	}
}

// swapGene exchanges gene i between two genomes of the same concrete type.
func swapGene(a, b core.Genome, i int) {
	switch ga := a.(type) {
	case *genome.BitString:
		gb := b.(*genome.BitString)
		bi, bj := ga.Get(i), gb.Get(i)
		ga.Set(i, bj)
		gb.Set(i, bi)
	case *genome.IntVector:
		gb := b.(*genome.IntVector)
		ga.Genes[i], gb.Genes[i] = gb.Genes[i], ga.Genes[i]
	case *genome.RealVector:
		gb := b.(*genome.RealVector)
		ga.Genes[i], gb.Genes[i] = gb.Genes[i], ga.Genes[i]
	default:
		panic(fmt.Sprintf("operators: gene-wise crossover unsupported for %T", a))
	}
}

// Arithmetic is whole-arithmetic crossover for real vectors:
// child1 = α·a + (1-α)·b with a fresh α per call.
type Arithmetic struct{}

// Name implements Crossover.
func (Arithmetic) Name() string { return "arithmetic" }

// Cross implements Crossover.
func (Arithmetic) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	va, vb := mustReal(a), mustReal(b)
	alpha := r.Float64()
	ca := va.Clone().(*genome.RealVector)
	cb := vb.Clone().(*genome.RealVector)
	for i := range ca.Genes {
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = alpha*x + (1-alpha)*y
		cb.Genes[i] = (1-alpha)*x + alpha*y
	}
	return ca, cb
}

// BLX is blend crossover BLX-α for real vectors: each child gene is drawn
// uniformly from the parents' interval extended by α on both sides, then
// clamped to bounds.
type BLX struct {
	// Alpha is the interval extension factor; the canonical default is 0.5.
	Alpha float64
}

// Name implements Crossover.
func (c BLX) Name() string { return fmt.Sprintf("blx(%.2g)", c.alpha()) }

func (c BLX) alpha() float64 {
	if c.Alpha <= 0 {
		return 0.5
	}
	return c.Alpha
}

// Cross implements Crossover.
func (c BLX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	va, vb := mustReal(a), mustReal(b)
	alpha := c.alpha()
	ca := va.Clone().(*genome.RealVector)
	cb := vb.Clone().(*genome.RealVector)
	for i := range ca.Genes {
		lo, hi := va.Genes[i], vb.Genes[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		d := hi - lo
		l, h := lo-alpha*d, hi+alpha*d
		ca.Genes[i] = r.Range(l, h)
		cb.Genes[i] = r.Range(l, h)
	}
	ca.Clamp()
	cb.Clamp()
	return ca, cb
}

// SBX is simulated binary crossover (Deb & Agrawal) for real vectors,
// the standard recombination of real-coded GAs.
type SBX struct {
	// Eta is the distribution index; larger values keep children closer to
	// parents. The canonical default is 15.
	Eta float64
}

// Name implements Crossover.
func (c SBX) Name() string { return fmt.Sprintf("sbx(%.3g)", c.eta()) }

func (c SBX) eta() float64 {
	if c.Eta <= 0 {
		return 15
	}
	return c.Eta
}

// Cross implements Crossover.
func (c SBX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	va, vb := mustReal(a), mustReal(b)
	eta := c.eta()
	ca := va.Clone().(*genome.RealVector)
	cb := vb.Clone().(*genome.RealVector)
	for i := range ca.Genes {
		u := r.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(eta+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(eta+1))
		}
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = 0.5 * ((1+beta)*x + (1-beta)*y)
		cb.Genes[i] = 0.5 * ((1-beta)*x + (1+beta)*y)
	}
	ca.Clamp()
	cb.Clamp()
	return ca, cb
}

func mustReal(g core.Genome) *genome.RealVector {
	v, ok := g.(*genome.RealVector)
	if !ok {
		panic(fmt.Sprintf("operators: real-vector crossover applied to %T", g))
	}
	return v
}

func mustPerm(g core.Genome) *genome.Permutation {
	p, ok := g.(*genome.Permutation)
	if !ok {
		panic(fmt.Sprintf("operators: permutation crossover applied to %T", g))
	}
	return p
}

// OX is order crossover for permutations: a random slice of one parent is
// kept, the remaining positions are filled with the other parent's items in
// their relative order.
type OX struct{}

// Name implements Crossover.
func (OX) Name() string { return "ox" }

// Cross implements Crossover.
func (OX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	pa, pb := mustPerm(a), mustPerm(b)
	n := pa.Len()
	if n < 2 {
		return pa.Clone(), pb.Clone()
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	return oxChild(pa, pb, i, j), oxChild(pb, pa, i, j)
}

// oxChild keeps keep[i..j] and fills the rest from other in order.
func oxChild(keep, other *genome.Permutation, i, j int) *genome.Permutation {
	n := keep.Len()
	child := &genome.Permutation{Perm: make([]int, n)}
	used := make([]bool, n)
	for k := i; k <= j; k++ {
		child.Perm[k] = keep.Perm[k]
		used[keep.Perm[k]] = true
	}
	pos := (j + 1) % n
	for k := 0; k < n; k++ {
		v := other.Perm[(j+1+k)%n]
		if used[v] {
			continue
		}
		child.Perm[pos] = v
		used[v] = true
		pos = (pos + 1) % n
	}
	return child
}

// PMX is partially mapped crossover for permutations.
type PMX struct{}

// Name implements Crossover.
func (PMX) Name() string { return "pmx" }

// Cross implements Crossover.
func (PMX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	pa, pb := mustPerm(a), mustPerm(b)
	n := pa.Len()
	if n < 2 {
		return pa.Clone(), pb.Clone()
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	return pmxChild(pa, pb, i, j), pmxChild(pb, pa, i, j)
}

// pmxChild builds a child that takes segment [i,j] from donor and maps the
// rest from filler through the segment's mapping.
func pmxChild(donor, filler *genome.Permutation, i, j int) *genome.Permutation {
	n := donor.Len()
	child := &genome.Permutation{Perm: make([]int, n)}
	inSeg := make([]bool, n) // value → lies in donor segment
	posOf := make([]int, n)  // value → its position in donor segment mapping
	for k := range posOf {
		posOf[k] = -1
	}
	for k := i; k <= j; k++ {
		child.Perm[k] = donor.Perm[k]
		inSeg[donor.Perm[k]] = true
		posOf[donor.Perm[k]] = k
	}
	for k := 0; k < n; k++ {
		if k >= i && k <= j {
			continue
		}
		v := filler.Perm[k]
		// Follow the mapping chain until v is not in the donor segment.
		for inSeg[v] {
			v = filler.Perm[posOf[v]]
		}
		child.Perm[k] = v
	}
	return child
}

// ERX is edge recombination crossover for permutations: the child is
// built greedily from the union of both parents' adjacency (edge) lists,
// always moving to the current city's neighbour with the fewest remaining
// edges. It preserves parental adjacency better than OX/PMX, which is
// what matters for tour-length problems. This implementation produces one
// distinct child per parent ordering (the second child starts from the
// second parent's first city).
type ERX struct{}

// Name implements Crossover.
func (ERX) Name() string { return "erx" }

// Cross implements Crossover.
func (ERX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	pa, pb := mustPerm(a), mustPerm(b)
	n := pa.Len()
	if n < 2 {
		return pa.Clone(), pb.Clone()
	}
	edges := buildEdgeMap(pa.Perm, pb.Perm)
	c1 := erxChild(edges, pa.Perm[0], n, r)
	c2 := erxChild(edges, pb.Perm[0], n, r)
	return c1, c2
}

// buildEdgeMap returns each city's neighbour set over both parent tours
// (closed tours: first and last are adjacent).
func buildEdgeMap(pa, pb []int) [][]int {
	n := len(pa)
	sets := make([]map[int]bool, n)
	for i := range sets {
		sets[i] = make(map[int]bool, 4)
	}
	addTour := func(p []int) {
		for i, v := range p {
			prev := p[(i+n-1)%n]
			next := p[(i+1)%n]
			sets[v][prev] = true
			sets[v][next] = true
		}
	}
	addTour(pa)
	addTour(pb)
	out := make([][]int, n)
	for v, s := range sets {
		for u := range s {
			out[v] = append(out[v], u)
		}
		// Sort for determinism (map iteration order is random).
		for i := 1; i < len(out[v]); i++ {
			for j := i; j > 0 && out[v][j] < out[v][j-1]; j-- {
				out[v][j], out[v][j-1] = out[v][j-1], out[v][j]
			}
		}
	}
	return out
}

// erxChild builds one child tour starting from start.
func erxChild(edges [][]int, start, n int, r *rng.Source) *genome.Permutation {
	used := make([]bool, n)
	remaining := make([]int, n) // remaining edge count per city
	for v := range edges {
		remaining[v] = len(edges[v])
	}
	child := make([]int, 0, n)
	cur := start
	for {
		child = append(child, cur)
		used[cur] = true
		if len(child) == n {
			break
		}
		// Decrease the remaining-degree of cur's neighbours.
		for _, u := range edges[cur] {
			if !used[u] {
				remaining[u]--
			}
		}
		// Next: unused neighbour with the fewest remaining edges; ties
		// broken uniformly at random.
		var cand []int
		bestDeg := 1 << 30
		for _, u := range edges[cur] {
			if used[u] {
				continue
			}
			switch {
			case remaining[u] < bestDeg:
				bestDeg = remaining[u]
				cand = cand[:0]
				cand = append(cand, u)
			case remaining[u] == bestDeg:
				cand = append(cand, u)
			}
		}
		if len(cand) == 0 {
			// Dead end: restart from a uniformly random unused city.
			var unused []int
			for v := 0; v < n; v++ {
				if !used[v] {
					unused = append(unused, v)
				}
			}
			cur = unused[r.Intn(len(unused))]
			continue
		}
		cur = cand[r.Intn(len(cand))]
	}
	return &genome.Permutation{Perm: child}
}

// CX is cycle crossover for permutations: children are composed of
// alternating cycles of the two parents, so every gene comes from one
// parent at the same position.
type CX struct{}

// Name implements Crossover.
func (CX) Name() string { return "cx" }

// Cross implements Crossover.
func (CX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	pa, pb := mustPerm(a), mustPerm(b)
	n := pa.Len()
	ca := &genome.Permutation{Perm: make([]int, n)}
	cb := &genome.Permutation{Perm: make([]int, n)}
	posInA := make([]int, n) // value → position in pa
	for i, v := range pa.Perm {
		posInA[v] = i
	}
	assigned := make([]bool, n)
	fromA := true
	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		// Trace the cycle containing position start.
		k := start
		for !assigned[k] {
			assigned[k] = true
			if fromA {
				ca.Perm[k], cb.Perm[k] = pa.Perm[k], pb.Perm[k]
			} else {
				ca.Perm[k], cb.Perm[k] = pb.Perm[k], pa.Perm[k]
			}
			k = posInA[pb.Perm[k]]
		}
		fromA = !fromA
	}
	return ca, cb
}
