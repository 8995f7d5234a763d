package genome

// Edge-case coverage for the packed []uint64 BitString layout: lengths
// that straddle word boundaries, the tail-mask invariant (bits at index
// >= N in the last word stay zero through every mutating operation —
// popcount, Hamming and Equal rely on it to skip masking), and the
// big-endian Uint window against a bit-built reference.

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"pga/internal/rng"
)

// tailClean reports whether every storage bit beyond b.N is zero.
func tailClean(b *BitString) bool {
	if b.N == 0 {
		return len(b.Words) == 0
	}
	last := b.Words[len(b.Words)-1]
	return last&^TailMask(b.N) == 0
}

func TestBitStringBoundaryLengths(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		b := RandomBitString(n, r)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		if want := (n + 63) / 64; len(b.Words) != want {
			t.Fatalf("n=%d: %d words, want %d", n, len(b.Words), want)
		}
		if !tailClean(b) {
			t.Fatalf("n=%d: random init left tail bits set", n)
		}
		// Count by accessor and by popcount must agree.
		ones := 0
		for i := 0; i < n; i++ {
			if b.Get(i) {
				ones++
			}
		}
		if b.OnesCount() != ones {
			t.Fatalf("n=%d: OnesCount=%d, per-bit count=%d", n, b.OnesCount(), ones)
		}
		// Flip every bit; the tail must stay clean and the count invert.
		for i := 0; i < n; i++ {
			b.Flip(i)
		}
		if !tailClean(b) {
			t.Fatalf("n=%d: Flip leaked into the tail", n)
		}
		if b.OnesCount() != n-ones {
			t.Fatalf("n=%d: complement OnesCount=%d, want %d", n, b.OnesCount(), n-ones)
		}
	}
}

func TestBitStringZeroLength(t *testing.T) {
	a, b := NewBitString(0), NewBitString(0)
	if a.OnesCount() != 0 || a.Hamming(b) != 0 || !a.Equal(b) {
		t.Fatal("zero-length bitstring arithmetic wrong")
	}
	c := a.Clone().(*BitString)
	if c.Len() != 0 {
		t.Fatal("zero-length clone wrong")
	}
	a.CopyFrom(b)
	if s := a.String(); s != "" {
		t.Fatalf("zero-length String = %q", s)
	}
}

func TestBitStringIndexPanics(t *testing.T) {
	b := NewBitString(64)
	for _, f := range []func(){
		func() { b.Get(-1) },
		func() { b.Get(64) },
		func() { b.Set(64, true) },
		func() { b.Flip(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected index panic")
				}
			}()
			f()
		}()
	}
}

func TestBitStringCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on CopyFrom length mismatch")
		}
	}()
	NewBitString(65).CopyFrom(NewBitString(64))
}

func TestBitStringCopyFromKeepsTail(t *testing.T) {
	r := rng.New(8)
	src := RandomBitString(70, r)
	dst := NewBitString(70)
	dst.CopyFrom(src)
	if !dst.Equal(src) || !tailClean(dst) {
		t.Fatal("CopyFrom not exact or tail dirty")
	}
	// Mutating the copy must not touch the source (word slices unshared).
	dst.Flip(69)
	if dst.Equal(src) {
		t.Fatal("CopyFrom aliases word storage")
	}
}

// toBools unpacks b one gene per element: the []bool reference form the
// packed layout is tested against.
func toBools(b *BitString) []bool {
	out := make([]bool, b.N)
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}

func TestBoolsRoundTrip(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{0, 1, 64, 100} {
		b := RandomBitString(n, r)
		c := BitStringFromBools(toBools(b))
		if !b.Equal(c) || !tailClean(c) {
			t.Fatalf("n=%d: []bool round trip not exact", n)
		}
	}
}

func TestOnesCountRangeMatchesNaive(t *testing.T) {
	r := rng.New(10)
	b := RandomBitString(200, r)
	check := func(a, z uint8) bool {
		lo, hi := int(a)%201, int(z)%201
		if lo > hi {
			lo, hi = hi, lo
		}
		naive := 0
		for i := lo; i < hi; i++ {
			if b.Get(i) {
				naive++
			}
		}
		return b.OnesCountRange(lo, hi) == naive
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 63, 64, 65, 130} {
		a, b := RandomBitString(n, r), RandomBitString(n, r)
		naive := 0
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				naive++
			}
		}
		if d := a.Hamming(b); d != naive {
			t.Fatalf("n=%d: Hamming=%d, naive=%d", n, d, naive)
		}
	}
}

func TestTranspose64MatchesNaive(t *testing.T) {
	// Rows as one-word BitStrings, so the reference is the bounds-checked
	// Get/Set pair: want[j] gene i = rows[i] gene j.
	r := rng.New(17)
	for round := 0; round < 20; round++ {
		var m, orig [64]uint64
		want := make([]*BitString, 64)
		for j := range want {
			want[j] = NewBitString(64)
		}
		for i := range m {
			row := RandomBitString(64, r)
			if round == 0 {
				row = NewBitString(64) // all-zero, then a single bit per row
				row.Set((i*7+3)&63, true)
			}
			m[i] = row.Words[0]
			for j := 0; j < 64; j++ {
				want[j].Set(i, row.Get(j))
			}
		}
		orig = m
		Transpose64(&m)
		for j := range m {
			if m[j] != want[j].Words[0] {
				t.Fatalf("round %d row %d: got %#x, naive %#x", round, j, m[j], want[j].Words[0])
			}
		}
		Transpose64(&m)
		if m != orig {
			t.Fatalf("round %d: transposing twice is not the identity", round)
		}
	}
}

func BenchmarkTranspose64(b *testing.B) {
	var m [64]uint64
	r := rng.New(18)
	for i := range m {
		m[i] = r.Uint64()
	}
	for i := 0; i < b.N; i++ {
		Transpose64(&m)
	}
}

func TestUintMatchesBitReference(t *testing.T) {
	// The big-endian window decode must equal the bit-built value for
	// windows that cross word boundaries.
	r := rng.New(12)
	b := RandomBitString(200, r)
	for _, w := range [][2]int{{0, 10}, {60, 70}, {63, 127}, {64, 128}, {100, 164}, {190, 200}} {
		lo, hi := w[0], w[1]
		var ref uint64
		for i := lo; i < hi; i++ {
			ref <<= 1
			if b.Get(i) {
				ref |= 1
			}
		}
		if got := b.Uint(lo, hi); got != ref {
			t.Fatalf("Uint(%d,%d)=%#x, bit-built %#x", lo, hi, got, ref)
		}
	}
}

func TestSetUintCrossesWords(t *testing.T) {
	b := NewBitString(200)
	for i := 0; i < 200; i++ {
		b.Set(i, true)
	}
	b.SetUint(60, 124, 0) // spans words 0..1
	if got := b.Uint(60, 124); got != 0 {
		t.Fatalf("cross-word SetUint: window = %#x, want 0", got)
	}
	if !b.Get(59) || !b.Get(124) {
		t.Fatal("SetUint clobbered neighbouring bits")
	}
	if !tailClean(b) {
		t.Fatal("SetUint dirtied the tail")
	}
}

func TestHash128Distinguishes(t *testing.T) {
	a := NewBitString(100)
	b := NewBitString(100)
	h1a, h2a := a.Hash128()
	h1b, h2b := b.Hash128()
	if h1a != h1b || h2a != h2b {
		t.Fatal("equal bitstrings hash differently")
	}
	b.Flip(99)
	h1b, h2b = b.Hash128()
	if h1a == h1b && h2a == h2b {
		t.Fatal("single-bit flip did not change the hash")
	}
	// Length is part of the hash: same (empty) words, different N.
	c, d := NewBitString(63), NewBitString(64)
	c1, c2 := c.Hash128()
	d1, d2 := d.Hash128()
	if c1 == d1 && c2 == d2 {
		t.Fatal("lengths 63 and 64 collide")
	}
}

func TestPermutationInverseInto(t *testing.T) {
	r := rng.New(13)
	p := RandomPermutation(40, r)
	inv := make([]int, 40)
	p.InverseInto(inv)
	for v := 0; v < 40; v++ {
		if p.Perm[inv[v]] != v || inv[v] != p.PositionOf(v) {
			t.Fatalf("InverseInto disagrees with PositionOf at %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on InverseInto length mismatch")
		}
	}()
	p.InverseInto(make([]int, 39))
}

// BenchmarkPositionOf pins the O(n) scan cost that motivated
// InverseInto: resolving every value's position via PositionOf is
// quadratic, via one InverseInto pass linear.
func BenchmarkPositionOf(b *testing.B) {
	p := RandomPermutation(256, rng.New(14))
	b.Run("scan-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < 256; v++ {
				_ = p.PositionOf(v)
			}
		}
	})
	inv := make([]int, 256)
	b.Run("inverse-into", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.InverseInto(inv)
		}
	})
}

// refRandomBitString is RandomBitString as it was before BoolMask: one
// Bool call per gene, kept as the oracle.
func refRandomBitString(n int, r *rng.Source) *BitString {
	b := NewBitString(n)
	for i := 0; i < n; i++ {
		if r.Bool() {
			b.Words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return b
}

// TestRandomBitStringMatchesPerBit: the word-at-a-time draw gives the
// per-bit loop's words, tail bits zero, and leaves the stream where it
// does.
func TestRandomBitStringMatchesPerBit(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1024} {
		for seed := uint64(1); seed <= 20; seed++ {
			got, want := rng.New(seed), rng.New(seed)
			g, w := RandomBitString(n, got), refRandomBitString(n, want)
			if g.N != n || !slices.Equal(g.Words, w.Words) {
				t.Fatalf("n=%d seed=%d: words %x, per-bit loop %x", n, seed, g.Words, w.Words)
			}
			if !tailClean(g) {
				t.Fatalf("n=%d seed=%d: tail bits set", n, seed)
			}
			if got.State() != want.State() {
				t.Fatalf("n=%d seed=%d: stream state differs from the per-bit loop's", n, seed)
			}
		}
	}
}

// BenchmarkRandomBitString draws n-bit strings word at a time; per-bit is
// the historical one-Bool-per-gene loop on the same lengths.
func BenchmarkRandomBitString(b *testing.B) {
	lengths := func(b *testing.B, draw func(int, *rng.Source) *BitString) {
		for _, n := range []int{64, 256, 1024} {
			b.Run(strconv.Itoa(n), func(b *testing.B) {
				r := rng.New(1)
				for i := 0; i < b.N; i++ {
					benchSink = draw(n, r)
				}
			})
		}
	}
	lengths(b, RandomBitString)
	b.Run("per-bit", func(b *testing.B) { lengths(b, refRandomBitString) })
}

var benchSink *BitString

func BenchmarkBitStringString(b *testing.B) {
	s := RandomBitString(64, rng.New(15))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.String()
	}
}

func BenchmarkOnesCount(b *testing.B) {
	s := RandomBitString(1024, rng.New(16))
	b.Run("popcount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.OnesCount()
		}
	})
	b.Run("per-bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for j := 0; j < s.Len(); j++ {
				if s.Get(j) {
					n++
				}
			}
			_ = n
		}
	})
}
