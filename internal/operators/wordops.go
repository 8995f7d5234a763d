package operators

// Word-wise operators for packed BitString genomes.
//
// The bit-wise operators (Uniform, KPoint, BitFlip) keep their historical
// one-draw-per-gene RNG sequences on the packed []uint64 layout — applied
// a word at a time, but drawn gene by gene — so the pre-existing golden
// traces stay byte-identical. UniformWord and BlockFlip are the other half
// of that bargain: they spend one RNG word per 64 genes and therefore
// consume deliberately different draw sequences, pinned by their own
// golden traces (internal/equiv), never by the bit-wise ones.
//
// Every whole-word write ANDs its mask with genome.TailMask so the
// tail-mask invariant (bits at positions >= N stay zero) survives; the
// XOR-swap forms get that for free because the parents' tails are zero.

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Compile-time checks: the word-wise crossovers are in-place capable like
// every other library crossover.
var (
	_ InPlaceCrossover = UniformWord{}
	_ InPlaceCrossover = KPointWord{}
	_ Mutator          = BlockFlip{}
)

// mustBits asserts a packed BitString operand.
func mustBits(g core.Genome) *genome.BitString {
	b, ok := g.(*genome.BitString)
	if !ok {
		panic(fmt.Sprintf("operators: word-wise operator applied to %T", g))
	}
	return b
}

// UniformWord is word-granular uniform crossover: one RNG word per 64
// genes serves as the exchange mask (per-gene exchange probability 1/2,
// the canonical uniform crossover), replacing 64 per-gene Chance draws.
type UniformWord struct{}

// Name implements Crossover.
func (UniformWord) Name() string { return "uniform-word" }

// Cross implements Crossover.
func (c UniformWord) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	return crossClone(c, a, b, r)
}

// CrossInto implements InPlaceCrossover.
func (UniformWord) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	ba, bb := mustBits(a), mustBits(b)
	if ba.N != bb.N {
		panic("operators: UniformWord parents of different lengths")
	}
	ca, cb := mustBits(c1), mustBits(c2)
	ca.CopyFrom(ba)
	cb.CopyFrom(bb)
	uniformWords(ca, cb, r)
}

// uniformWords exchanges masked bits between two equal-length children:
// one Uint64 draw per word. The XOR of two tail-invariant genomes has a
// zero tail, so the swap preserves the invariant without masking.
func uniformWords(ca, cb *genome.BitString, r *rng.Source) {
	for w := range ca.Words {
		x := (ca.Words[w] ^ cb.Words[w]) & r.Uint64()
		ca.Words[w] ^= x
		cb.Words[w] ^= x
	}
}

// KPointWord is KPoint restricted to bit strings. It was introduced as
// the word-granular execution of KPoint's cuts; KPoint now applies its
// cuts a word at a time itself, so the two share draws, kernel
// (kpointSwap) and children, and KPointWord survives for its spec key
// and golden traces.
type KPointWord struct {
	// K is the number of cut points; it is capped at Len-1.
	K int
}

// Name implements Crossover.
func (k KPointWord) Name() string { return fmt.Sprintf("%d-point-word", k.K) }

// Cross implements Crossover.
func (k KPointWord) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	return crossClone(k, a, b, r)
}

// CrossInto implements InPlaceCrossover.
func (k KPointWord) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	ba, bb := mustBits(a), mustBits(b)
	if ba.N != bb.N {
		panic("operators: KPointWord parents of different lengths")
	}
	ca, cb := mustBits(c1), mustBits(c2)
	ca.CopyFrom(ba)
	cb.CopyFrom(bb)
	kpointSwap(ca, cb, k.K, r, s)
}

// BlockFlip is a word-granular bit-flip mutator: for each 64-gene word
// it ANDs K fresh RNG words into a flip mask, giving every gene an
// independent flip probability of 2^-K — K draws per word instead of 64
// per-gene Chance draws. The default K=6 approximates the canonical
// 1/Len rate for 64-gene genomes (2^-6 = 1/64).
type BlockFlip struct {
	// K is the number of AND-ed mask draws per word (flip probability
	// 2^-K per gene); <= 0 selects 6.
	K int
}

func (m BlockFlip) k() int {
	if m.K <= 0 {
		return 6
	}
	return m.K
}

// Name implements Mutator.
func (m BlockFlip) Name() string { return fmt.Sprintf("blockflip(2^-%d)", m.k()) }

// Mutate implements Mutator.
func (m BlockFlip) Mutate(g core.Genome, r *rng.Source) {
	b := mustBits(g)
	if b.N == 0 {
		return
	}
	k := m.k()
	tail := genome.TailMask(b.N)
	last := len(b.Words) - 1
	for w := range b.Words {
		mask := r.Uint64()
		for i := 1; i < k; i++ {
			mask &= r.Uint64()
		}
		if w == last {
			mask &= tail
		}
		b.Words[w] ^= mask
	}
}
