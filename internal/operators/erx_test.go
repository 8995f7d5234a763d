package operators

import (
	"testing"

	"pga/internal/genome"
	"pga/internal/rng"
)

func TestERXClosure(t *testing.T) { permClosureCheck(t, ERX{}) }

func TestERXPreservesSharedAdjacency(t *testing.T) {
	// When both parents are the same tour, the child must reproduce it
	// (up to rotation/reversal) because every edge has degree ≤ 2.
	r := rng.New(7)
	p := genome.RandomPermutation(12, r)
	c1, _ := (ERX{}).Cross(p, p.Clone(), r)
	child := c1.(*genome.Permutation)
	// Check adjacency preservation: every consecutive child pair must be
	// adjacent in the parent tour.
	pos := make([]int, 12)
	for i, v := range p.Perm {
		pos[v] = i
	}
	adjacent := func(a, b int) bool {
		d := pos[a] - pos[b]
		if d < 0 {
			d = -d
		}
		return d == 1 || d == 11
	}
	for i := 0; i < 12; i++ {
		a, b := child.Perm[i], child.Perm[(i+1)%12]
		if !adjacent(a, b) {
			t.Fatalf("child edge (%d,%d) not in identical parents", a, b)
		}
	}
}

func TestERXInheritsMostEdgesFromParents(t *testing.T) {
	r := rng.New(8)
	inherited, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		a := genome.RandomPermutation(16, r)
		b := genome.RandomPermutation(16, r)
		edgeSet := map[[2]int]bool{}
		add := func(p *genome.Permutation) {
			n := p.Len()
			for i, v := range p.Perm {
				u := p.Perm[(i+1)%n]
				lo, hi := v, u
				if lo > hi {
					lo, hi = hi, lo
				}
				edgeSet[[2]int{lo, hi}] = true
			}
		}
		add(a)
		add(b)
		c, _ := (ERX{}).Cross(a, b, r)
		child := c.(*genome.Permutation)
		for i, v := range child.Perm {
			u := child.Perm[(i+1)%16]
			lo, hi := v, u
			if lo > hi {
				lo, hi = hi, lo
			}
			total++
			if edgeSet[[2]int{lo, hi}] {
				inherited++
			}
		}
	}
	frac := float64(inherited) / float64(total)
	if frac < 0.85 {
		t.Fatalf("ERX inherited only %.2f of edges from parents", frac)
	}
}

func TestERXTiny(t *testing.T) {
	r := rng.New(9)
	a := genome.IdentityPermutation(1)
	c1, c2 := (ERX{}).Cross(a, a.Clone(), r)
	if c1.Len() != 1 || c2.Len() != 1 {
		t.Fatal("1-city ERX broken")
	}
}

func TestERXDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		r := rng.New(10)
		a := genome.RandomPermutation(14, r)
		b := genome.RandomPermutation(14, r)
		c, _ := (ERX{}).Cross(a, b, r)
		return c.(*genome.Permutation).Perm
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("ERX not deterministic")
		}
	}
}

// refBuildEdgeMap and refERXChild are the textbook map-based edge
// recombination ERX was first written as: per-call neighbour maps, sorted
// for determinism, and append-grown candidate lists. The production form
// (erxEdgesInto/erxChildInto) is a different algorithm over a flat n×4
// table, so this one stays as the reference it is compared against.
//
// refBuildEdgeMap returns each city's neighbour set over both parent tours
// (closed tours: first and last are adjacent).
func refBuildEdgeMap(pa, pb []int) [][]int {
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

// refERXChild builds one child tour starting from start.
func refERXChild(edges [][]int, start, n int, r *rng.Source) *genome.Permutation {
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

// TestERXMatchesMapReference proves the flat-table implementation equals
// the map-based reference: same parents and seed produce the same children
// AND leave the RNG stream in the same state, across sizes that exercise
// the tie-break and dead-end restart paths.
func TestERXMatchesMapReference(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 40} {
		for seed := uint64(1); seed <= 8; seed++ {
			setup := rng.New(seed)
			a := genome.RandomPermutation(n, setup)
			b := genome.RandomPermutation(n, setup)

			r1 := rng.New(seed * 101)
			edges := refBuildEdgeMap(a.Perm, b.Perm)
			p1 := refERXChild(edges, a.Perm[0], n, r1)
			p2 := refERXChild(edges, b.Perm[0], n, r1)

			r2 := rng.New(seed * 101)
			d1 := &genome.Permutation{Perm: make([]int, n)}
			d2 := &genome.Permutation{Perm: make([]int, n)}
			(ERX{}).CrossInto(a, b, d1, d2, r2, &Scratch{})

			for i := 0; i < n; i++ {
				if p1.Perm[i] != d1.Perm[i] || p2.Perm[i] != d2.Perm[i] {
					t.Fatalf("n=%d seed=%d: CrossInto children diverge from the reference at %d", n, seed, i)
				}
			}
			if r1.State() != r2.State() {
				t.Fatalf("n=%d seed=%d: RNG streams diverge after crossover", n, seed)
			}
		}
	}
}

// TestERXCrossIntoAllocFree gates the point of the in-place variant:
// after the scratch warms up, a CrossInto performs zero heap allocations.
func TestERXCrossIntoAllocFree(t *testing.T) {
	r := rng.New(5)
	a := genome.RandomPermutation(32, r)
	b := genome.RandomPermutation(32, r)
	c1 := &genome.Permutation{Perm: make([]int, 32)}
	c2 := &genome.Permutation{Perm: make([]int, 32)}
	s := &Scratch{}
	avg := testing.AllocsPerRun(50, func() {
		(ERX{}).CrossInto(a, b, c1, c2, r, s)
	})
	if avg != 0 {
		t.Errorf("ERX.CrossInto: %.1f allocs per call, want 0", avg)
	}
}
