package genome

import (
	"strings"
	"testing"
	"testing/quick"

	"pga/internal/rng"
)

func TestBitStringCloneDeep(t *testing.T) {
	r := rng.New(1)
	b := RandomBitString(32, r)
	c := b.Clone().(*BitString)
	c.Flip(0)
	if b.Get(0) == c.Get(0) {
		t.Fatal("Clone aliases bits")
	}
	if c.Len() != 32 {
		t.Fatal("Clone changed length")
	}
}

func TestBitStringOnesCount(t *testing.T) {
	b := NewBitString(8)
	if b.OnesCount() != 0 {
		t.Fatal("fresh bitstring not zero")
	}
	b.Set(1, true)
	b.Set(3, true)
	b.Set(7, true)
	if b.OnesCount() != 3 {
		t.Fatalf("OnesCount=%d want 3", b.OnesCount())
	}
}

func TestBitStringHamming(t *testing.T) {
	a := NewBitString(5)
	b := NewBitString(5)
	b.Set(0, true)
	b.Set(4, true)
	if d := a.Hamming(b); d != 2 {
		t.Fatalf("Hamming=%d want 2", d)
	}
}

func TestBitStringHammingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	NewBitString(3).Hamming(NewBitString(4))
}

func TestBitStringUintPanics(t *testing.T) {
	b := NewBitString(100)
	for _, f := range []func(){
		func() { b.Uint(-1, 5) },
		func() { b.Uint(0, 101) },
		func() { b.Uint(5, 4) },
		func() { b.Uint(0, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// binaryToGray converts a plain binary value to its Gray code: the
// encoder GrayToBinary is checked against.
func binaryToGray(b uint64) uint64 { return b ^ (b >> 1) }

func TestGrayRoundTrip(t *testing.T) {
	check := func(v uint32) bool {
		return GrayToBinary(binaryToGray(uint64(v))) == uint64(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Successive Gray codes differ in exactly one bit.
	for v := uint64(0); v < 1024; v++ {
		a, b := binaryToGray(v), binaryToGray(v+1)
		x := a ^ b
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in != 1 bit", v, v+1)
		}
	}
}

func TestDecodeReal(t *testing.T) {
	b := NewBitString(10)
	if got := b.DecodeReal(0, 10, -5, 5, false); got != -5 {
		t.Fatalf("all-zero decodes to %v, want -5", got)
	}
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true)
	}
	if got := b.DecodeReal(0, 10, -5, 5, false); got != 5 {
		t.Fatalf("all-one decodes to %v, want 5", got)
	}
	// Gray all-ones decodes to binary 0b1010101010 pattern — just check range.
	g := b.DecodeReal(0, 10, -5, 5, true)
	if g < -5 || g > 5 {
		t.Fatalf("gray decode out of range: %v", g)
	}
}

func TestRandomBitStringIsRandom(t *testing.T) {
	r := rng.New(2)
	b := RandomBitString(256, r)
	ones := b.OnesCount()
	if ones < 96 || ones > 160 {
		t.Fatalf("random bitstring heavily biased: %d/256 ones", ones)
	}
}

func TestBitStringStringAbbreviates(t *testing.T) {
	b := NewBitString(100)
	s := b.String()
	if !strings.Contains(s, "…(100)") {
		t.Fatalf("long String not abbreviated: %q", s)
	}
	if NewBitString(4).String() != "0000" {
		t.Fatal("short String wrong")
	}
}

// inBounds reports whether every gene of v lies within its bounds.
func inBounds(v *RealVector) bool {
	for i, g := range v.Genes {
		if g < v.Lo[i] || g > v.Hi[i] {
			return false
		}
	}
	return true
}

func TestRealVectorBasics(t *testing.T) {
	r := rng.New(3)
	v := RandomRealVector(10, -2, 2, r)
	if v.Len() != 10 {
		t.Fatal("wrong length")
	}
	if !inBounds(v) {
		t.Fatal("random vector out of bounds")
	}
	c := v.Clone().(*RealVector)
	c.Genes[0] = 99
	if v.Genes[0] == 99 {
		t.Fatal("Clone aliases genes")
	}
}

func TestRealVectorClamp(t *testing.T) {
	v := NewRealVector(3, -1, 1)
	v.Genes[0], v.Genes[1], v.Genes[2] = -5, 0.5, 5
	v.Clamp()
	if !inBounds(v) || v.Genes[0] != -1 || v.Genes[1] != 0.5 || v.Genes[2] != 1 {
		t.Fatalf("Clamp wrong: %v", v.Genes)
	}
}

func TestRealVectorString(t *testing.T) {
	v := NewRealVector(20, 0, 1)
	if !strings.Contains(v.String(), "…(20)") {
		t.Fatal("long vector not abbreviated")
	}
	if s := NewRealVector(2, 0, 1).String(); s != "[0 0]" {
		t.Fatalf("short String = %q", s)
	}
}

func TestIntVectorBasics(t *testing.T) {
	r := rng.New(4)
	v := RandomIntVector(50, 7, r)
	if !v.Valid() {
		t.Fatal("random int vector invalid")
	}
	c := v.Clone().(*IntVector)
	c.Genes[0] = 6
	v.Genes[0] = 0
	if c.Genes[0] != 6 {
		t.Fatal("Clone aliases genes")
	}
	v.Genes[0] = 7
	if v.Valid() {
		t.Fatal("Valid missed out-of-domain gene")
	}
	v.Genes[0] = -1
	if v.Valid() {
		t.Fatal("Valid missed negative gene")
	}
}

func TestIntVectorString(t *testing.T) {
	v := NewIntVector(20, 3)
	if !strings.Contains(v.String(), "…(20)") {
		t.Fatal("long IntVector not abbreviated")
	}
}

func TestPermutationIdentity(t *testing.T) {
	p := IdentityPermutation(5)
	for i, v := range p.Perm {
		if v != i {
			t.Fatalf("identity wrong at %d: %d", i, v)
		}
	}
	if !p.Valid() {
		t.Fatal("identity invalid")
	}
}

func TestPermutationRandomValid(t *testing.T) {
	r := rng.New(5)
	check := func(n uint8) bool {
		size := int(n%30) + 2
		return RandomPermutation(size, r).Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationCloneDeep(t *testing.T) {
	r := rng.New(6)
	p := RandomPermutation(10, r)
	c := p.Clone().(*Permutation)
	c.Perm[0], c.Perm[1] = c.Perm[1], c.Perm[0]
	if !p.Valid() || !c.Valid() {
		t.Fatal("clone broke validity")
	}
	same := true
	for i := range p.Perm {
		if p.Perm[i] != c.Perm[i] {
			same = false
		}
	}
	if same {
		t.Fatal("swap did not alter clone (aliasing?)")
	}
}

func TestPermutationValidDetectsDuplicates(t *testing.T) {
	p := &Permutation{Perm: []int{0, 1, 1}}
	if p.Valid() {
		t.Fatal("duplicate not detected")
	}
	p = &Permutation{Perm: []int{0, 1, 3}}
	if p.Valid() {
		t.Fatal("out-of-range not detected")
	}
}

func TestPermutationString(t *testing.T) {
	p := IdentityPermutation(20)
	if !strings.Contains(p.String(), "…(20)") {
		t.Fatal("long permutation not abbreviated")
	}
	if s := IdentityPermutation(3).String(); s != "(0 1 2)" {
		t.Fatalf("short String = %q", s)
	}
}
