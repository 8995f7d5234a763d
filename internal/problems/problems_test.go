package problems

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// allOnes / allZeros helpers.
func allOnes(n int) *genome.BitString {
	b := genome.NewBitString(n)
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true)
	}
	return b
}

func TestOneMax(t *testing.T) {
	p := OneMax{N: 10}
	if p.Evaluate(genome.NewBitString(10)) != 0 {
		t.Fatal("all-zeros not 0")
	}
	if p.Evaluate(allOnes(10)) != 10 {
		t.Fatal("all-ones not 10")
	}
	if !p.Solved(10) || p.Solved(9) {
		t.Fatal("Solved wrong")
	}
	if p.Direction() != core.Maximize {
		t.Fatal("direction wrong")
	}
}

func TestDeceptiveTrapValues(t *testing.T) {
	p := DeceptiveTrap{Blocks: 1, K: 4}
	cases := map[int]float64{0: 3, 1: 2, 2: 1, 3: 0, 4: 4}
	for ones, want := range cases {
		b := genome.NewBitString(4)
		for i := 0; i < ones; i++ {
			b.Set(i, true)
		}
		if got := p.Evaluate(b); got != want {
			t.Fatalf("trap(%d ones) = %v, want %v", ones, got, want)
		}
	}
}

func TestDeceptiveTrapIsDeceptive(t *testing.T) {
	// The basin of all-zeros must be larger than the basin of all-ones:
	// for unitation < K, fitness decreases as ones increase.
	p := DeceptiveTrap{Blocks: 1, K: 5}
	prev := math.Inf(1)
	for ones := 0; ones < 5; ones++ {
		b := genome.NewBitString(5)
		for i := 0; i < ones; i++ {
			b.Set(i, true)
		}
		f := p.Evaluate(b)
		if f >= prev {
			t.Fatal("trap not monotonically deceptive")
		}
		prev = f
	}
}

func TestDeceptiveTrapMultiBlock(t *testing.T) {
	p := DeceptiveTrap{Blocks: 3, K: 4}
	if got := p.Evaluate(allOnes(12)); got != 12 {
		t.Fatalf("3-block all-ones = %v", got)
	}
	if got := p.Evaluate(genome.NewBitString(12)); got != 9 {
		t.Fatalf("3-block all-zeros = %v, want 9", got)
	}
	if p.Optimum() != 12 {
		t.Fatal("optimum wrong")
	}
}

func TestMMDP(t *testing.T) {
	p := MMDP{Blocks: 2}
	if got := p.Evaluate(allOnes(12)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mmdp all-ones = %v", got)
	}
	if got := p.Evaluate(genome.NewBitString(12)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mmdp all-zeros = %v (both extremes are optima)", got)
	}
	// Unitation 3 is the deceptive attractor with value 0.640576 per block.
	b := genome.NewBitString(12)
	for _, i := range []int{0, 1, 2, 6, 7, 8} {
		b.Set(i, true)
	}
	if got := p.Evaluate(b); math.Abs(got-2*0.640576) > 1e-9 {
		t.Fatalf("mmdp unitation-3 = %v", got)
	}
	if !p.Solved(2) || p.Solved(1.9) {
		t.Fatal("Solved wrong")
	}
}

func TestPPeaks(t *testing.T) {
	p := NewPPeaks(5, 32, 7)
	// A peak itself must score 1.0.
	for _, peak := range p.peaks {
		if got := p.Evaluate(peak); got != 1.0 {
			t.Fatalf("peak scores %v", got)
		}
	}
	r := rng.New(1)
	g := p.NewGenome(r)
	f := p.Evaluate(g)
	if f <= 0 || f > 1 {
		t.Fatalf("p-peaks fitness out of (0,1]: %v", f)
	}
	if !p.Solved(1.0) || p.Solved(0.99) {
		t.Fatal("Solved wrong")
	}
}

func TestPPeaksDeterministicInstance(t *testing.T) {
	a := NewPPeaks(3, 16, 42)
	b := NewPPeaks(3, 16, 42)
	for i := range a.peaks {
		if !a.peaks[i].Equal(b.peaks[i]) {
			t.Fatal("same seed produced different P-PEAKS instances")
		}
	}
}

func TestRoyalRoad(t *testing.T) {
	p := RoyalRoad{Blocks: 4, K: 8}
	if got := p.Evaluate(genome.NewBitString(32)); got != 0 {
		t.Fatalf("empty royal road = %v", got)
	}
	if got := p.Evaluate(allOnes(32)); got != 32 {
		t.Fatalf("full royal road = %v", got)
	}
	// One complete block scores exactly K; a partial block scores 0.
	b := genome.NewBitString(32)
	for i := 0; i < 8; i++ {
		b.Set(i, true)
	}
	b.Set(9, true) // partial second block contributes nothing
	if got := p.Evaluate(b); got != 8 {
		t.Fatalf("one-block royal road = %v", got)
	}
}

func TestNKLandscape(t *testing.T) {
	p := NewNKLandscape(20, 3, 5)
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		f := p.Evaluate(p.NewGenome(r))
		if f < 0 || f > 1 {
			t.Fatalf("nk fitness out of [0,1]: %v", f)
		}
	}
	// Same genome, same fitness (table lookup is pure).
	g := p.NewGenome(r)
	if p.Evaluate(g) != p.Evaluate(g) {
		t.Fatal("nk not deterministic")
	}
	// Same seed, same instance.
	q := NewNKLandscape(20, 3, 5)
	if p.Evaluate(g) != q.Evaluate(g) {
		t.Fatal("nk instance not seed-deterministic")
	}
}

func TestNKEpistasis(t *testing.T) {
	// Flipping one bit must change the contribution of all genes linked to
	// it — fitness change is generally not confined to one locus.
	p := NewNKLandscape(16, 2, 9)
	r := rng.New(3)
	g := p.NewGenome(r).(*genome.BitString)
	f0 := p.Evaluate(g)
	g.Flip(0)
	f1 := p.Evaluate(g)
	if f0 == f1 {
		t.Fatal("flipping a bit changed nothing (suspicious for NK)")
	}
}

// TestNKPanicsOnBadK: every k the kernels cannot index — k >= n, k < 0
// (which used to die inside rng.Sample) and a table too large to allocate
// (which used to die in make) — is refused by name before anything is
// drawn or allocated.
func TestNKPanicsOnBadK(t *testing.T) {
	for _, nk := range [][2]int{{4, 4}, {10, -1}, {100, 24}, {100, 70}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "problems: NK requires") {
					t.Fatalf("NewNKLandscape(%d, %d): recovered %q, want a problems: NK panic", nk[0], nk[1], msg)
				}
			}()
			NewNKLandscape(nk[0], nk[1], 1)
		}()
	}
}

func TestSubsetSumPerfectSolutionExists(t *testing.T) {
	p := NewSubsetSum(30, 11)
	// Brute-force greedy check is hard; instead verify evaluate semantics.
	b := genome.NewBitString(30)
	f := p.Evaluate(b) // empty subset → -target
	if f != -float64(p.Target()) {
		t.Fatalf("empty subset fitness %v, want %v", f, -float64(p.Target()))
	}
	if p.Solved(-1) || !p.Solved(0) {
		t.Fatal("Solved wrong")
	}
	if p.Direction() != core.Maximize {
		t.Fatal("direction wrong")
	}
}

func TestKnapsackPenalty(t *testing.T) {
	p := NewKnapsack(20, 13)
	empty := p.Evaluate(genome.NewBitString(20))
	if empty != 0 {
		t.Fatalf("empty knapsack = %v", empty)
	}
	full := p.Evaluate(allOnes(20))
	// Full load is overweight (capacity = half the total) → penalised below
	// the sum of values.
	sumv := 0.0
	for _, v := range p.values {
		sumv += v
	}
	if full >= sumv {
		t.Fatalf("overweight not penalised: %v >= %v", full, sumv)
	}
}

func TestMaxSAT(t *testing.T) {
	p := NewMaxSAT(20, 80, 17)
	r := rng.New(4)
	for i := 0; i < 50; i++ {
		f := p.Evaluate(p.NewGenome(r))
		if f < 0 || f > 1 {
			t.Fatalf("maxsat fitness out of range: %v", f)
		}
	}
	// A random assignment satisfies ~7/8 of random 3-clauses.
	sum := 0.0
	for i := 0; i < 200; i++ {
		sum += p.Evaluate(p.NewGenome(r))
	}
	if avg := sum / 200; avg < 0.8 || avg > 0.95 {
		t.Fatalf("maxsat random-assignment mean %v, want ≈0.875", avg)
	}
}

func TestRealFunctionsAtOptimum(t *testing.T) {
	cases := []struct {
		p   *RealFunc
		opt []float64
	}{
		{Sphere(4), []float64{0, 0, 0, 0}},
		{Rastrigin(4), []float64{0, 0, 0, 0}},
		{Rosenbrock(4), []float64{1, 1, 1, 1}},
		{Ackley(4), []float64{0, 0, 0, 0}},
		{Griewank(4), []float64{0, 0, 0, 0}},
		{Schwefel(4), []float64{420.9687, 420.9687, 420.9687, 420.9687}},
	}
	for _, c := range cases {
		v := genome.NewRealVector(c.p.Dim, c.p.Lo, c.p.Hi)
		copy(v.Genes, c.opt)
		f := c.p.Evaluate(v)
		if !c.p.Solved(f) {
			t.Fatalf("%s at optimum scores %v (tol %v), not solved", c.p.Name(), f, c.p.Tol)
		}
		if f < c.p.Opt-1e-6 {
			t.Fatalf("%s scores below declared optimum: %v < %v", c.p.Name(), f, c.p.Opt)
		}
	}
}

func TestRealFunctionsNonNegativeNearOptimum(t *testing.T) {
	r := rng.New(5)
	for _, p := range []*RealFunc{Sphere(6), Rastrigin(6), Rosenbrock(6), Ackley(6), Griewank(6)} {
		for i := 0; i < 100; i++ {
			f := p.Evaluate(p.NewGenome(r))
			if f < -1e-9 {
				t.Fatalf("%s produced negative value %v", p.Name(), f)
			}
		}
	}
}

func TestRealFunctionRandomWorseThanOptimum(t *testing.T) {
	r := rng.New(6)
	for _, p := range []*RealFunc{Sphere(10), Rastrigin(10), Schwefel(10)} {
		f := p.Evaluate(p.NewGenome(r))
		if p.Solved(f) {
			t.Fatalf("%s random point already solved: %v", p.Name(), f)
		}
	}
}

func TestBinaryEncodedDecode(t *testing.T) {
	inner := Sphere(2)
	enc := &BinaryEncoded{Inner: inner, BitsPerVar: 16}
	b := genome.NewBitString(32)
	x := enc.Decode(b)
	if x[0] != inner.Lo || x[1] != inner.Lo {
		t.Fatalf("all-zero decodes to %v, want lo bounds", x)
	}
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true)
	}
	x = enc.Decode(b)
	if x[0] != inner.Hi || x[1] != inner.Hi {
		t.Fatalf("all-one decodes to %v, want hi bounds", x)
	}
}

func TestBinaryEncodedEvaluateMatchesInner(t *testing.T) {
	inner := Sphere(3)
	enc := &BinaryEncoded{Inner: inner, BitsPerVar: 20, Gray: true}
	r := rng.New(7)
	g := enc.NewGenome(r).(*genome.BitString)
	x := enc.Decode(g)
	v := genome.NewRealVector(3, inner.Lo, inner.Hi)
	copy(v.Genes, x)
	if math.Abs(enc.Evaluate(g)-inner.Evaluate(v)) > 1e-12 {
		t.Fatal("encoded evaluate differs from inner on decoded point")
	}
	if enc.Name() == "" || enc.Direction() != core.Minimize {
		t.Fatal("metadata wrong")
	}
}

func TestRegistryAllKeysInstantiate(t *testing.T) {
	r := rng.New(8)
	for _, key := range Keys() {
		spec, err := Lookup(key)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", key, err)
		}
		size := 24
		if key == "mmdp" {
			size = 24 // divisible by 6
		}
		p := spec.Make(size, 1)
		g := p.NewGenome(r)
		f := p.Evaluate(g)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("%s produced non-finite fitness", key)
		}
		if spec.Class == "" {
			t.Fatalf("%s has no class", key)
		}
	}
}

func TestRegistryUnknownKey(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown key succeeded")
	}
}

func TestFiniteGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("finite(NaN) did not panic")
		}
	}()
	finite(math.NaN())
}

func TestProblemNamesNonEmpty(t *testing.T) {
	ps := []core.Problem{
		OneMax{N: 4}, DeceptiveTrap{Blocks: 1, K: 4}, MMDP{Blocks: 1},
		NewPPeaks(2, 8, 1), RoyalRoad{Blocks: 1, K: 8}, NewNKLandscape(8, 2, 1),
		NewSubsetSum(8, 1), NewKnapsack(8, 1), NewMaxSAT(8, 20, 1),
		Sphere(2), Rastrigin(2), Rosenbrock(2), Ackley(2), Griewank(2), Schwefel(2),
	}
	for _, p := range ps {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}
