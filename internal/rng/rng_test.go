package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream has too many repeats: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams share %d/1000 draws", same)
	}
}

func TestSplitDeterministicAcrossRuns(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		kids := p.SplitN(4)
		var out []uint64
		for _, k := range kids {
			for i := 0; i < 8; i++ {
				out = append(out, k.Uint64())
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SplitN not reproducible at %d", i)
		}
	}
}

func TestSplitDoesNotPerturbParentStream(t *testing.T) {
	a := New(5)
	b := New(5)
	a.Uint64()
	b.Uint64()
	_ = b.Split() // must not change b's main stream
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split perturbed parent stream at draw %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestChance(t *testing.T) {
	r := New(23)
	if r.Chance(0) {
		t.Fatal("Chance(0) returned true")
	}
	if !r.Chance(1) {
		t.Fatal("Chance(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Chance(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Chance(0.3) rate = %v", float64(hits)/n)
	}
}

// TestChanceMaskMatchesChance is the draw-compatibility property behind
// the word-parallel bit operators: for every n in 0..64, ChanceMask(p, n)
// is bit for bit the outcomes of n Chance(p) calls on a copy of the
// stream, and both leave the same State(). The fixed probabilities sit on
// every branch and on the edges of the integer-threshold compare.
func TestChanceMaskMatchesChance(t *testing.T) {
	ps := []float64{
		0, math.SmallestNonzeroFloat64, 1.0 / 1024, 0.5, 0.9,
		1 - 1.0/(1<<53), 1, 1.5, -0.25, math.NaN(),
		1.0 / (1 << 53), math.Nextafter(1.0/(1<<53), 1), math.Inf(1), math.Inf(-1),
	}
	pr := New(67)
	for i := 0; i < 200; i++ {
		ps = append(ps, pr.Float64(), pr.Float64()/1024)
	}
	seed := uint64(1)
	for _, p := range ps {
		for n := 0; n <= 64; n++ {
			seed++
			bulk, ref := New(seed), New(seed)
			got := bulk.ChanceMask(p, n)
			var want uint64
			for i := 0; i < n; i++ {
				if ref.Chance(p) {
					want |= 1 << uint(i)
				}
			}
			if got != want {
				t.Fatalf("ChanceMask(%v, %d) = %#x, %d Chance calls give %#x", p, n, got, n, want)
			}
			if bulk.State() != ref.State() {
				t.Fatalf("ChanceMask(%v, %d) left state %v, Chance calls left %v", p, n, bulk.State(), ref.State())
			}
		}
	}
}

func TestChanceMaskPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ChanceMask(0.5, %d) did not panic", n)
				}
			}()
			New(1).ChanceMask(0.5, n)
		}()
	}
}

// TestBoolMaskMatchesBool: for every n in 0..64, BoolMask(n) is bit for
// bit the outcomes of n Bool calls on a copy of the stream, and both
// leave the same State().
func TestBoolMaskMatchesBool(t *testing.T) {
	seed := uint64(0)
	for rep := 0; rep < 50; rep++ {
		for n := 0; n <= 64; n++ {
			seed++
			bulk, ref := New(seed), New(seed)
			got := bulk.BoolMask(n)
			var want uint64
			for i := 0; i < n; i++ {
				if ref.Bool() {
					want |= 1 << uint(i)
				}
			}
			if got != want {
				t.Fatalf("seed %d: BoolMask(%d) = %#x, %d Bool calls give %#x", seed, n, got, n, want)
			}
			if bulk.State() != ref.State() {
				t.Fatalf("seed %d: BoolMask(%d) left state %v, Bool calls left %v", seed, n, bulk.State(), ref.State())
			}
		}
	}
}

func TestBoolMaskPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("BoolMask(%d) did not panic", n)
				}
			}()
			New(1).BoolMask(n)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := r.Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(31)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("Perm first-element bucket %d = %d, want ~%f", i, c, want)
		}
	}
}

func TestSample(t *testing.T) {
	r := New(37)
	for k := 0; k <= 10; k++ {
		s := r.Sample(10, k)
		if len(s) != k {
			t.Fatalf("Sample(10,%d) returned %d elements", k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("Sample produced invalid/duplicate index %d", v)
			}
			seen[v] = true
		}
	}
}

// refSample is Sample as it was before SampleInto took a caller-held
// identity table: the partial Fisher–Yates over a freshly filled n-entry
// table, kept as the oracle.
func refSample(r *Source, n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// TestSampleIntoMatchesReference: for every n ≤ 300 and every k ≤ n,
// SampleInto over one shared identity table and Sample return the
// reference's indices and leave the stream where it does, and the table
// is the identity again after every call.
func TestSampleIntoMatchesReference(t *testing.T) {
	const maxN = 300
	id, out := make([]int, maxN), make([]int, maxN)
	for i := range id {
		id[i] = i
	}
	seed := uint64(0)
	for n := 0; n <= maxN; n++ {
		for k := 0; k <= n; k++ {
			seed++
			got, want, whole := New(seed), New(seed), New(seed)
			ref := refSample(want, n, k)
			if s := got.SampleInto(id[:n], out[:k]); !slices.Equal(s, ref) {
				t.Fatalf("SampleInto(n=%d, k=%d) = %v, reference %v", n, k, s, ref)
			}
			if s := whole.Sample(n, k); !slices.Equal(s, ref) {
				t.Fatalf("Sample(%d, %d) = %v, reference %v", n, k, s, ref)
			}
			if got.State() != want.State() || whole.State() != want.State() {
				t.Fatalf("n=%d, k=%d: stream state differs from the reference's", n, k)
			}
			for i, v := range id {
				if v != i {
					t.Fatalf("n=%d, k=%d: table[%d] = %d after the call", n, k, i, v)
				}
			}
		}
	}
}

// BenchmarkSampleInto is the k-point cut draw of model-matrix's parallel
// document: 2 cuts among the 255 interior points of a 256-bit genome.
func BenchmarkSampleInto(b *testing.B) {
	r := New(1)
	id, out := make([]int, 255), make([]int, 2)
	for i := range id {
		id[i] = i
	}
	for i := 0; i < b.N; i++ {
		r.SampleInto(id, out)
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestRange(t *testing.T) {
	r := New(41)
	for i := 0; i < 10000; i++ {
		v := r.Range(-2.5, 7.5)
		if v < -2.5 || v >= 7.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(61)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/n-0.5) > 0.01 {
		t.Fatalf("Bool true-rate = %v", float64(trues)/n)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkChance and BenchmarkChanceMask draw the same 64 outcomes per
// iteration, one call at a time and in bulk.
func BenchmarkChance(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			_ = r.Chance(0.5)
		}
	}
}

func BenchmarkChanceMask(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.ChanceMask(0.5, 64)
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestLeapMatchesStepping: a leap over d draws leaves a stream exactly
// where d Uint64 calls do — the xoshiro words and the split counter — and
// the stream goes on identically from there.
func TestLeapMatchesStepping(t *testing.T) {
	for _, d := range []int{0, 1, 63, 64, 65, 2048, 3073} {
		l := NewLeap(d)
		if l.Draws() != d {
			t.Fatalf("NewLeap(%d).Draws() = %d", d, l.Draws())
		}
		for seed := uint64(1); seed <= 8; seed++ {
			leapt, stepped := New(seed), New(seed)
			leapt.Split()
			stepped.Split()
			l.Apply(leapt)
			for i := 0; i < d; i++ {
				stepped.Uint64()
			}
			if leapt.State() != stepped.State() {
				t.Fatalf("seed %d: a leap over %d draws left %v, stepping left %v", seed, d, leapt.State(), stepped.State())
			}
			if a, b := leapt.Uint64(), stepped.Uint64(); a != b {
				t.Fatalf("seed %d, d %d: next draw %#x after the leap, %#x after stepping", seed, d, a, b)
			}
		}
	}
}

func TestNewLeapPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLeap(-1) did not panic")
		}
	}()
	NewLeap(-1)
}

// FuzzLeapBodies: every Leap.image body this host runs maps any state
// through any leap's tables as the generic body does, and a leap made
// with the host's body leaves a stream where stepping does.
func FuzzLeapBodies(f *testing.F) {
	f.Add(uint16(3072), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint16(0), uint64(0), uint64(0), uint64(0), uint64(1<<63))
	f.Add(uint16(1), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint16(65535), uint64(0x0123456789abcdef), uint64(0xfedcba9876543210), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, d uint16, s0, s1, s2, s3 uint64) {
		l := NewLeap(int(d))
		st := [4]uint64{s0, s1, s2, s3}
		want := imageGeneric(&l.tab, st)
		for _, b := range runnable(leapBodies) {
			if got := b.fn(&l.tab, st); got != want {
				t.Fatalf("%s: leap over %d draws maps %#x to %#x, the generic body to %#x", b.name, d, st, got, want)
			}
		}
		if st == ([4]uint64{}) {
			return // xoshiro's fixed point: no stream to step
		}
		leapt, stepped := Source{s: st}, Source{s: st}
		l.Apply(&leapt)
		for i := 0; i < int(d); i++ {
			stepped.Uint64()
		}
		if leapt.State() != stepped.State() {
			t.Fatalf("a leap over %d draws left %v, stepping left %v", d, leapt.State(), stepped.State())
		}
	})
}

// BenchmarkLeap: one Apply (what a leapt pair costs the plan pass of
// lane births) and one NewLeap over a bitwise-gen pair's 3 072 draws
// (built once per engine).
func BenchmarkLeap(b *testing.B) {
	l := NewLeap(3072)
	b.Run("apply", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			l.Apply(r)
		}
	})
	b.Run("new/3072", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewLeap(3072)
		}
	})
}
