// Package genome provides the concrete chromosome representations used by
// the library: binary strings (with optional Gray decoding), real-valued
// vectors, bounded integer vectors and permutations.
//
// The survey's reviewed systems span all four: binary strings are the
// classic Goldberg/Holland encoding, real vectors cover the ARGA-style
// real-coded algorithms (Oyama 2000), integer vectors cover assignment
// problems such as reactor-core loading (Pereira 2003), and permutations
// cover routing/scheduling (TSP, Sena 2001).
package genome

import (
	"fmt"
	"math/bits"
	"strings"

	"pga/internal/core"
	"pga/internal/rng"
)

// BitString is a fixed-length binary chromosome stored as a packed
// bitset: gene i lives in Words[i/64] at bit position i%64 (LSB-first
// within a word). The unused high bits of the final word are always
// zero — the tail-mask invariant — which lets whole-word operations
// (popcount, XOR Hamming, word-wise crossover masks) run without any
// per-call masking. See DESIGN's memory-layout section for the
// contract.
type BitString struct {
	// Words is the packed bit storage, LSB-first within each word.
	// Mutators that write whole words must preserve the tail-mask
	// invariant: bits at positions >= N in the final word stay zero.
	Words []uint64
	// N is the genome length in bits.
	N int
}

// wordsFor returns the number of 64-bit words required to hold n bits.
func wordsFor(n int) int { return (n + 63) >> 6 }

// TailMask returns the mask of valid bit positions in the final word of
// an n-bit string (all ones when n is a positive multiple of 64).
// Word-wise operators AND their random masks with it so the tail-mask
// invariant survives whole-word writes.
func TailMask(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// NewBitString returns an all-zero bit string of length n.
func NewBitString(n int) *BitString {
	return &BitString{Words: make([]uint64, wordsFor(n)), N: n}
}

// RandomBitString returns a uniformly random bit string of length n.
// It draws exactly one Bool per gene, gene i from the i-th draw; the draw
// sequence predates the packed layout and is pinned by the recorded
// sweep results. Each word is one BoolMask of the genes it holds, so the
// tail bits are zero by construction.
func RandomBitString(n int, r *rng.Source) *BitString {
	b := NewBitString(n)
	for w := range b.Words {
		b.Words[w] = r.BoolMask(min(64, n-w<<6))
	}
	return b
}

// Get returns gene i. It panics when i is out of range.
func (b *BitString) Get(i int) bool {
	if uint(i) >= uint(b.N) {
		panic("genome: BitString index out of range")
	}
	return b.Words[i>>6]>>(uint(i)&63)&1 == 1
}

// Set writes gene i. It panics when i is out of range.
func (b *BitString) Set(i int, v bool) {
	if uint(i) >= uint(b.N) {
		panic("genome: BitString index out of range")
	}
	if v {
		b.Words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.Words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Flip inverts gene i. It panics when i is out of range.
func (b *BitString) Flip(i int) {
	if uint(i) >= uint(b.N) {
		panic("genome: BitString index out of range")
	}
	b.Words[i>>6] ^= 1 << (uint(i) & 63)
}

// Clone implements core.Genome.
func (b *BitString) Clone() core.Genome {
	c := NewBitString(b.N)
	copy(c.Words, b.Words)
	return c
}

// CopyFrom implements core.Genome. It panics on type or length mismatch.
func (b *BitString) CopyFrom(src core.Genome) {
	o := src.(*BitString)
	if b.N != o.N {
		panic("genome: BitString.CopyFrom length mismatch")
	}
	copy(b.Words, o.Words)
}

// Len implements core.Genome.
func (b *BitString) Len() int { return b.N }

// String implements core.Genome. Long genomes are abbreviated. At most
// 64 genes are rendered, so the digits fit a single stack buffer.
func (b *BitString) String() string {
	show := b.N
	if show > 64 {
		show = 64
	}
	var buf [64]byte
	for i := 0; i < show; i++ {
		buf[i] = '0' + byte(b.Words[i>>6]>>(uint(i)&63)&1)
	}
	if show == b.N {
		return string(buf[:show])
	}
	return string(buf[:show]) + fmt.Sprintf("…(%d)", b.N)
}

// OnesCount returns the number of one-bits (one popcount per word; the
// tail-mask invariant makes the final word safe to count unmasked).
func (b *BitString) OnesCount() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// OnesCountRange returns the number of one-bits in genes [lo, hi),
// counting whole words between the masked boundary words. It panics on
// an invalid range.
func (b *BitString) OnesCountRange(lo, hi int) int {
	if lo < 0 || hi > b.N || hi < lo {
		panic("genome: OnesCountRange invalid")
	}
	if lo == hi {
		return 0
	}
	fw, lw := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if fw == lw {
		return bits.OnesCount64(b.Words[fw] & first & last)
	}
	n := bits.OnesCount64(b.Words[fw] & first)
	for w := fw + 1; w < lw; w++ {
		n += bits.OnesCount64(b.Words[w])
	}
	return n + bits.OnesCount64(b.Words[lw]&last)
}

// Hamming returns the Hamming distance to o (XOR + popcount per word).
// It panics on length mismatch.
func (b *BitString) Hamming(o *BitString) int {
	if b.N != o.N {
		panic("genome: Hamming distance between different lengths")
	}
	d := 0
	for i, w := range b.Words {
		d += bits.OnesCount64(w ^ o.Words[i])
	}
	return d
}

// field extracts w bits (1..64) starting at gene lo, LSB-first.
func (b *BitString) field(lo, w int) uint64 {
	fw := lo >> 6
	off := uint(lo) & 63
	v := b.Words[fw] >> off
	if off != 0 && off+uint(w) > 64 {
		v |= b.Words[fw+1] << (64 - off)
	}
	if w < 64 {
		v &= 1<<uint(w) - 1
	}
	return v
}

// Uint decodes bits [lo, hi) as a big-endian unsigned integer (gene lo
// is the most significant bit, as in the classic fixed-point decoding).
// It panics if the range is invalid or wider than 64 bits. The packed
// layout stores genes LSB-first, so the word-windowed field is
// bit-reversed down to the requested width.
func (b *BitString) Uint(lo, hi int) uint64 {
	if lo < 0 || hi > b.N || hi < lo || hi-lo > 64 {
		panic("genome: Uint range invalid")
	}
	w := hi - lo
	if w == 0 {
		return 0
	}
	return bits.Reverse64(b.field(lo, w)) >> (64 - uint(w))
}

// GrayToBinary converts a Gray-coded value to plain binary.
func GrayToBinary(g uint64) uint64 {
	b := g
	for g >>= 1; g != 0; g >>= 1 {
		b ^= g
	}
	return b
}

// DecodeReal decodes bits [lo, hi) into a float64 in [min, max], treating
// the bits as Gray code when gray is true. This is the classic
// fixed-point decoding of binary GAs for numeric optimisation.
func (b *BitString) DecodeReal(lo, hi int, min, max float64, gray bool) float64 {
	v := b.Uint(lo, hi)
	if gray {
		v = GrayToBinary(v)
	}
	bits := hi - lo
	den := float64(uint64(1)<<uint(bits) - 1)
	if den == 0 {
		return min
	}
	return min + (max-min)*float64(v)/den
}

// RealVector is a fixed-length real-valued chromosome with per-run bounds
// stored alongside the genes (shared, not copied, by Clone).
type RealVector struct {
	Genes []float64
	// Lo and Hi are the per-gene bounds used by bounded operators. They
	// are shared between clones (treated as immutable).
	Lo, Hi []float64
}

// NewRealVector returns a zero vector of length n with bounds [lo, hi] on
// every gene.
func NewRealVector(n int, lo, hi float64) *RealVector {
	l := make([]float64, n)
	h := make([]float64, n)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return &RealVector{Genes: make([]float64, n), Lo: l, Hi: h}
}

// RandomRealVector returns a uniformly random vector within bounds.
func RandomRealVector(n int, lo, hi float64, r *rng.Source) *RealVector {
	v := NewRealVector(n, lo, hi)
	for i := range v.Genes {
		v.Genes[i] = r.Range(lo, hi)
	}
	return v
}

// Clone implements core.Genome. Bounds are shared (immutable by
// convention); genes are copied.
func (v *RealVector) Clone() core.Genome {
	g := make([]float64, len(v.Genes))
	copy(g, v.Genes)
	return &RealVector{Genes: g, Lo: v.Lo, Hi: v.Hi}
}

// CopyFrom implements core.Genome. Bounds are shared (immutable by
// convention), exactly as in Clone. It panics on type or length mismatch.
func (v *RealVector) CopyFrom(src core.Genome) {
	o := src.(*RealVector)
	if len(v.Genes) != len(o.Genes) {
		panic("genome: RealVector.CopyFrom length mismatch")
	}
	copy(v.Genes, o.Genes)
	v.Lo, v.Hi = o.Lo, o.Hi
}

// Len implements core.Genome.
func (v *RealVector) Len() int { return len(v.Genes) }

// String implements core.Genome.
func (v *RealVector) String() string {
	n := len(v.Genes)
	show := n
	if show > 8 {
		show = 8
	}
	parts := make([]string, 0, show)
	for i := 0; i < show; i++ {
		parts = append(parts, fmt.Sprintf("%.3g", v.Genes[i]))
	}
	s := "[" + strings.Join(parts, " ")
	if show < n {
		s += fmt.Sprintf(" …(%d)", n)
	}
	return s + "]"
}

// Clamp forces every gene back into its bounds.
func (v *RealVector) Clamp() {
	for i, g := range v.Genes {
		if g < v.Lo[i] {
			v.Genes[i] = v.Lo[i]
		} else if g > v.Hi[i] {
			v.Genes[i] = v.Hi[i]
		}
	}
}

// IntVector is a fixed-length integer chromosome where every gene lies in
// [0, Card) — e.g. an assignment of items to Card categories.
type IntVector struct {
	Genes []int
	// Card is the cardinality of each gene's domain.
	Card int
}

// NewIntVector returns a zero vector of length n with gene domain [0, card).
func NewIntVector(n, card int) *IntVector {
	return &IntVector{Genes: make([]int, n), Card: card}
}

// RandomIntVector returns a uniformly random integer vector.
func RandomIntVector(n, card int, r *rng.Source) *IntVector {
	v := NewIntVector(n, card)
	for i := range v.Genes {
		v.Genes[i] = r.Intn(card)
	}
	return v
}

// Clone implements core.Genome.
func (v *IntVector) Clone() core.Genome {
	g := make([]int, len(v.Genes))
	copy(g, v.Genes)
	return &IntVector{Genes: g, Card: v.Card}
}

// CopyFrom implements core.Genome. It panics on type or length mismatch.
func (v *IntVector) CopyFrom(src core.Genome) {
	o := src.(*IntVector)
	if len(v.Genes) != len(o.Genes) {
		panic("genome: IntVector.CopyFrom length mismatch")
	}
	copy(v.Genes, o.Genes)
	v.Card = o.Card
}

// Len implements core.Genome.
func (v *IntVector) Len() int { return len(v.Genes) }

// String implements core.Genome.
func (v *IntVector) String() string {
	n := len(v.Genes)
	show := n
	if show > 16 {
		show = 16
	}
	parts := make([]string, 0, show)
	for i := 0; i < show; i++ {
		parts = append(parts, fmt.Sprintf("%d", v.Genes[i]))
	}
	s := "[" + strings.Join(parts, " ")
	if show < n {
		s += fmt.Sprintf(" …(%d)", n)
	}
	return s + "]"
}

// Valid reports whether every gene lies in [0, Card).
func (v *IntVector) Valid() bool {
	for _, g := range v.Genes {
		if g < 0 || g >= v.Card {
			return false
		}
	}
	return true
}

// Permutation is a chromosome encoding an ordering of n items; Perm always
// holds each of 0..n-1 exactly once.
type Permutation struct {
	Perm []int
}

// IdentityPermutation returns the identity ordering of n items.
func IdentityPermutation(n int) *Permutation {
	p := &Permutation{Perm: make([]int, n)}
	for i := range p.Perm {
		p.Perm[i] = i
	}
	return p
}

// RandomPermutation returns a uniformly random ordering of n items.
func RandomPermutation(n int, r *rng.Source) *Permutation {
	return &Permutation{Perm: r.Perm(n)}
}

// Clone implements core.Genome.
func (p *Permutation) Clone() core.Genome {
	q := make([]int, len(p.Perm))
	copy(q, p.Perm)
	return &Permutation{Perm: q}
}

// CopyFrom implements core.Genome. It panics on type or length mismatch.
func (p *Permutation) CopyFrom(src core.Genome) {
	o := src.(*Permutation)
	if len(p.Perm) != len(o.Perm) {
		panic("genome: Permutation.CopyFrom length mismatch")
	}
	copy(p.Perm, o.Perm)
}

// Len implements core.Genome.
func (p *Permutation) Len() int { return len(p.Perm) }

// String implements core.Genome.
func (p *Permutation) String() string {
	n := len(p.Perm)
	show := n
	if show > 16 {
		show = 16
	}
	parts := make([]string, 0, show)
	for i := 0; i < show; i++ {
		parts = append(parts, fmt.Sprintf("%d", p.Perm[i]))
	}
	s := "(" + strings.Join(parts, " ")
	if show < n {
		s += fmt.Sprintf(" …(%d)", n)
	}
	return s + ")"
}

// Valid reports whether Perm is a true permutation of 0..n-1.
func (p *Permutation) Valid() bool {
	seen := make([]bool, len(p.Perm))
	for _, v := range p.Perm {
		if v < 0 || v >= len(p.Perm) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
