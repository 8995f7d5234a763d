// Package rng provides a deterministic, splittable pseudo-random number
// generator for parallel genetic algorithms.
//
// Every deme, worker and operator in this library draws randomness from its
// own *rng.Source. Sources are created either from a seed or by splitting an
// existing source into independent streams, so a parallel run with k demes is
// reproducible regardless of goroutine scheduling: deme i always sees the
// same stream no matter how the demes interleave.
//
// The core generator is xoshiro256**, seeded through SplitMix64. Splitting
// derives child seeds from the parent's SplitMix64 sequence, which is the
// standard construction for independent parallel streams.
package rng

import "math"

// Source is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; give each goroutine its own Source (see Split).
type Source struct {
	s [4]uint64
	// splitCtr feeds SplitMix64 when deriving child streams so that
	// repeated Split calls yield distinct, decorrelated children.
	splitCtr uint64
}

// splitmix64 advances x and returns the next SplitMix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		src.s[i] = splitmix64(&x)
	}
	// All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
	// zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	src.splitCtr = splitmix64(&x)
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the parent's. The parent advances its split counter but not its main
// stream, so interleaving Split calls with draws is still deterministic.
func (r *Source) Split() *Source {
	c := r.splitCtr
	seed := splitmix64(&c)
	r.splitCtr = c
	return New(seed ^ 0xa3c59ac2f0b7d1e4)
}

// SplitN returns n independent child Sources (a convenience for one stream
// per deme or worker).
func (r *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability 1/2.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Chance returns true with probability p (clamped to [0,1]).
func (r *Source) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ChanceMask returns the outcomes of n consecutive Chance(p) calls packed
// LSB-first (bit i is the i-th call), leaving the stream exactly where
// those calls would: one draw per bit for 0 < p < 1 and for NaN (whose
// mask is zero, as Float64() < NaN never holds), none for p <= 0 or
// p >= 1. It is the bulk form the packed bit-string operators apply a
// word at a time. It panics unless 0 <= n <= 64.
//
// Float64() is k·2^-53 for the integer k = Uint64()>>11, and both that
// product and p·2^53 are exact in float64, so Float64() < p ⇔ k < p·2^53
// ⇔ k < ceil(p·2^53): one integer compare per draw, no float conversion.
func (r *Source) ChanceMask(p float64, n int) uint64 {
	if uint(n) > 64 {
		panic("rng: ChanceMask called with n outside [0, 64]")
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0) >> (64 - uint(n)) // Go defines x>>64 as 0
	}
	var thr uint64 // NaN keeps 0: every compare fails
	if !math.IsNaN(p) {
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	// The xoshiro state lives in locals for the whole batch; k and thr are
	// both <= 2^53, so the sign bit of k-thr is exactly k < thr.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var mask uint64
	for i := 0; i < n; i++ {
		k := (rotl(s1*5, 7) * 9) >> 11
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		mask = mask>>1 | (k-thr)&(1<<63)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return mask >> (64 - uint(n))
}

// BoolMask returns the outcomes of n consecutive Bool calls packed
// LSB-first (bit i is the low bit of the i-th draw), leaving the stream
// exactly where those calls would. It is ChanceMask's loop without the
// threshold: the bulk form random bit strings are drawn in, a word at a
// time. It panics unless 0 <= n <= 64.
func (r *Source) BoolMask(n int) uint64 {
	if uint(n) > 64 {
		panic("rng: BoolMask called with n outside [0, 64]")
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var mask uint64
	for i := 0; i < n; i++ {
		v := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		mask = mask>>1 | v<<63
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return mask >> (64 - uint(n))
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)) without
// allocating — the scratch-buffer form of Perm for generation hot paths.
// The RNG draw sequence is identical to Perm(len(p)).
func (r *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Source) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0. It allocates and fills an n-entry
// identity table per call, so a call costs O(n) by design: it is for
// one-shot draws. A loop that samples holds one identity table and draws
// with SampleInto, which gives the same draws and result in O(k).
func (r *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return r.SampleInto(id, make([]int, k))
}

// SampleInto draws len(out) distinct indices uniformly from [0, len(id))
// into out and returns it: the allocation-free form of Sample for
// generation hot paths, with the same draws and the same result as
// Sample(len(id), len(out)). id must hold the identity permutation, and
// it holds it again on return. The partial Fisher–Yates below writes at
// most len(out) entries and resets at most 2·len(out), so a call costs
// O(len(out)) whatever len(id) is. It panics if len(out) > len(id).
func (r *Source) SampleInto(id, out []int) []int {
	n := len(id)
	if len(out) > n {
		panic("rng: SampleInto called with k out of range")
	}
	// Step i swaps position i with a uniform j in [i, n) and never reads
	// position i again, so only the value moving into it is kept, in out.
	for i := range out {
		j := i + r.Intn(n-i)
		out[i], id[j] = id[j], id[i]
	}
	// A position j ≥ len(out) written above still held j when first
	// written, so that step drew j into out: resetting the positions
	// below len(out) and those named in out restores the identity.
	for i, v := range out {
		id[i], id[v] = i, v
	}
	return out
}

// Exp returns an exponentially distributed float64 with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp called with lambda <= 0")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// State returns the generator's full internal state (four xoshiro words
// plus the split counter) for checkpointing. Restoring it with SetState
// resumes the stream exactly.
func (r *Source) State() [5]uint64 {
	return [5]uint64{r.s[0], r.s[1], r.s[2], r.s[3], r.splitCtr}
}

// SetState restores a state captured by State. It panics on the all-zero
// xoshiro state, which is unreachable from any valid stream.
func (r *Source) SetState(st [5]uint64) {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		panic("rng: SetState with all-zero xoshiro state")
	}
	r.s = [4]uint64{st[0], st[1], st[2], st[3]}
	r.splitCtr = st[4]
}

// Jump advances the stream by 2^128 draws; child code that wants manual
// stream partitioning can use repeated Jump instead of Split.
func (r *Source) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := uint(0); b < 64; b++ {
			if j&(1<<b) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}
