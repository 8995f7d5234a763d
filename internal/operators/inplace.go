package operators

// The crossover bodies and the operators' working memory.
//
// A crossover has one form: CrossInto writes its offspring into
// caller-provided genomes (the engine's double-buffered next generation)
// and takes its working memory (cut-point tables, used-flags, ERX
// adjacency) from a per-engine Scratch, so the generation hot path
// allocates nothing. A caller that wants fresh children clones the
// parents and crosses into the clones. Selectors take the same Scratch
// (plan.go holds the selection plan it carries).

import (
	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Scratch is reusable per-engine working memory for the operators: index
// tables, flag vectors, ERX adjacency, and the selection plan of the
// rank-based and roulette selectors (plan.go). It grows to the largest
// size requested and is then allocation-free. The plan's buffers are
// disjoint from the crossover buffers, so a plan stays valid across the
// CrossInto calls of the generation it was opened for. A Scratch is NOT
// safe for concurrent use — give each engine (and each worker of a
// shared-memory engine) its own, exactly like an *rng.Source.
type Scratch struct {
	table  []int
	table2 []int
	flags  []bool
	mask   []uint64
	// ident is the identity table the k-point cuts are sampled from;
	// rng.SampleInto leaves it the identity, so it is filled only when
	// it grows.
	ident []int

	plan selPlan
	// rankCum memoises LinearRank's cumulative rank weights, a function
	// of (n, SP) alone and so kept across plans.
	rankCum []float64
	rankSP  float64

	// ERX working memory: the union adjacency of two closed tours is at
	// most four neighbours per city, so the edge table is a flat n×4
	// array with per-city counts — no per-call maps.
	erxEdges  []int // city v's neighbours at [4v : 4v+erxCnt[v]], ascending
	erxCnt    []int // neighbour count per city
	erxRem    []int // remaining-degree, reset per child
	erxCand   []int // minimum-degree candidate buffer (≤ 4)
	erxUnused []int // dead-end restart buffer
}

// ints returns a length-n int buffer (contents undefined).
func (s *Scratch) ints(n int) []int {
	if cap(s.table) < n {
		s.table = make([]int, n)
	}
	return s.table[:n]
}

// ints2 returns a second, independent length-n int buffer.
func (s *Scratch) ints2(n int) []int {
	if cap(s.table2) < n {
		s.table2 = make([]int, n)
	}
	return s.table2[:n]
}

// identity returns the length-n prefix of the identity table. Callers
// must hand it back as the identity (rng.SampleInto does).
func (s *Scratch) identity(n int) []int {
	if cap(s.ident) < n {
		s.ident = make([]int, n)
		for i := range s.ident {
			s.ident[i] = i
		}
	}
	return s.ident[:n]
}

// bools returns a length-n flag buffer cleared to false.
func (s *Scratch) bools(n int) []bool {
	if cap(s.flags) < n {
		s.flags = make([]bool, n)
	}
	f := s.flags[:n]
	for i := range f {
		f[i] = false
	}
	return f
}

// words returns a length-n word buffer cleared to zero.
func (s *Scratch) words(n int) []uint64 {
	if cap(s.mask) < n {
		s.mask = make([]uint64, n)
	}
	m := s.mask[:n]
	for i := range m {
		m[i] = 0
	}
	return m
}

// CrossInto recombines parents a and b into the two child individuals'
// existing genomes — the engines' hot-path entry point for
// recombination. The children's fitness is left untouched (callers
// invalidate).
func CrossInto(c Crossover, a, b core.Genome, ch1, ch2 *core.Individual, r *rng.Source, s *Scratch) {
	c.CrossInto(a, b, ch1.Genome, ch2.Genome, r, s)
}

// CrossInto implements Crossover.
func (OnePoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	KPoint{K: 1}.CrossInto(a, b, c1, c2, r, s)
}

// CrossInto implements Crossover.
func (TwoPoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	KPoint{K: 2}.CrossInto(a, b, c1, c2, r, s)
}

// CrossInto implements Crossover.
func (k KPoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	if b.Len() != a.Len() {
		panic("operators: KPoint parents of different lengths")
	}
	c1.CopyFrom(a)
	c2.CopyFrom(b)
	kpointSwap(c1, c2, k.K, r, s)
}

// CrossInto implements Crossover.
func (u Uniform) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	if b.Len() != a.Len() {
		panic("operators: Uniform parents of different lengths")
	}
	c1.CopyFrom(a)
	c2.CopyFrom(b)
	uniformSwap(c1, c2, u.p(), r)
}

// CrossInto implements Crossover.
func (Arithmetic) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi // bounds shared, as in Clone
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	alpha := r.Float64()
	for i := range ca.Genes {
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = alpha*x + (1-alpha)*y
		cb.Genes[i] = (1-alpha)*x + alpha*y
	}
}

// CrossInto implements Crossover.
func (c BLX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	alpha := c.alpha()
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
}

// CrossInto implements Crossover.
func (c SBX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	e := 1 / (c.eta() + 1)
	for i := range ca.Genes {
		u := r.Float64()
		var beta float64
		if u <= 0.5 {
			beta = powFrac(2*u, e)
		} else {
			beta = powFrac(1/(2*(1-u)), e)
		}
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = 0.5 * ((1+beta)*x + (1-beta)*y)
		cb.Genes[i] = 0.5 * ((1-beta)*x + (1+beta)*y)
	}
	ca.Clamp()
	cb.Clamp()
}

// CrossInto implements Crossover.
func (OX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	oxChildInto(ca, pa, pb, i, j, s)
	oxChildInto(cb, pb, pa, i, j, s)
}

// oxChildInto keeps keep[i..j] in child and fills the rest from other in
// order.
func oxChildInto(child, keep, other *genome.Permutation, i, j int, s *Scratch) {
	n := keep.Len()
	used := s.bools(n)
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
}

// CrossInto implements Crossover.
func (PMX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	pmxChildInto(ca, pa, pb, i, j, s)
	pmxChildInto(cb, pb, pa, i, j, s)
}

// pmxChildInto takes segment [i,j] from donor and maps the rest of child
// from filler through the segment's mapping.
func pmxChildInto(child, donor, filler *genome.Permutation, i, j int, s *Scratch) {
	n := donor.Len()
	inSeg := s.bools(n) // value → lies in donor segment
	posOf := s.ints2(n) // value → its position in donor segment mapping
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
}

// CrossInto implements Crossover.
func (CX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	posInA := s.ints(n) // value → position in pa
	for i, v := range pa.Perm {
		posInA[v] = i
	}
	assigned := s.bools(n)
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
}

// CrossInto implements Crossover.
func (ERX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	erxEdgesInto(s, pa.Perm, pb.Perm)
	erxChildInto(ca, pa.Perm[0], n, r, s)
	erxChildInto(cb, pb.Perm[0], n, r, s)
}

// erxEdgesInto fills the scratch adjacency table with each city's
// neighbour set over both parent tours (closed tours: first and last are
// adjacent). Per-city lists are kept ascending by sorted insertion; the
// candidate scan order, and therefore the tie-break draws, depend on it.
func erxEdgesInto(s *Scratch, pa, pb []int) {
	n := len(pa)
	if cap(s.erxEdges) < 4*n {
		s.erxEdges = make([]int, 4*n)
		s.erxCnt = make([]int, n)
		s.erxRem = make([]int, n)
		s.erxCand = make([]int, 4)
		s.erxUnused = make([]int, n)
	}
	edges, cnt := s.erxEdges[:4*n], s.erxCnt[:n]
	for i := range cnt {
		cnt[i] = 0
	}
	add := func(v, u int) {
		base := 4 * v
		k := 0
		for ; k < cnt[v]; k++ {
			if edges[base+k] == u {
				return
			}
			if edges[base+k] > u {
				break
			}
		}
		for j := cnt[v]; j > k; j-- {
			edges[base+j] = edges[base+j-1]
		}
		edges[base+k] = u
		cnt[v]++
	}
	addTour := func(p []int) {
		for i, v := range p {
			add(v, p[(i+n-1)%n])
			add(v, p[(i+1)%n])
		}
	}
	addTour(pa)
	addTour(pb)
}

// erxChildInto builds one child tour from start, reading the adjacency
// table prepared by erxEdgesInto.
func erxChildInto(child *genome.Permutation, start, n int, r *rng.Source, s *Scratch) {
	edges, cnt := s.erxEdges, s.erxCnt
	rem := s.erxRem[:n]
	copy(rem, cnt)
	used := s.bools(n)
	cur := start
	filled := 0
	for {
		child.Perm[filled] = cur
		filled++
		used[cur] = true
		if filled == n {
			break
		}
		// Decrease the remaining-degree of cur's neighbours.
		base := 4 * cur
		for k := 0; k < cnt[cur]; k++ {
			if u := edges[base+k]; !used[u] {
				rem[u]--
			}
		}
		// Next: unused neighbour with the fewest remaining edges; ties
		// broken uniformly at random. Indexed writes, not append: the
		// buffers are scratch-owned and exactly sized.
		cand := s.erxCand[:4]
		candN := 0
		bestDeg := 1 << 30
		for k := 0; k < cnt[cur]; k++ {
			u := edges[base+k]
			if used[u] {
				continue
			}
			switch {
			case rem[u] < bestDeg:
				bestDeg = rem[u]
				cand[0] = u
				candN = 1
			case rem[u] == bestDeg:
				cand[candN] = u
				candN++
			}
		}
		if candN == 0 {
			// Dead end: restart from a uniformly random unused city
			// (ascending scan).
			unused := s.erxUnused[:n]
			un := 0
			for v := 0; v < n; v++ {
				if !used[v] {
					unused[un] = v
					un++
				}
			}
			cur = unused[r.Intn(un)]
			continue
		}
		cur = cand[r.Intn(candN)]
	}
}
