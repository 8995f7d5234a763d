package problems

import (
	"pga/internal/core"
	"pga/internal/genome"
)

// Batched evaluation for the binary landscapes (core.BatchProblem):
// SerialEvaluator and the master–slave farm hand over a whole pending
// set, which amortises the per-call interface dispatch for the popcount
// problems, lets one pass over MaxSAT's clauses serve 64 genomes, and lets
// one walk over NK's loci serve eight. Every EvaluateBatch returns bit-identical fitness to its
// scalar Evaluate (the seam's contract; differential_test.go holds both
// to the pre-compilation per-gene bodies). Problems are shared by farm
// workers and islands, so scratch lives on the caller's stack: nothing
// is written to a receiver and nothing is allocated.
var (
	_ core.BatchProblem = OneMax{}
	_ core.BatchProblem = RoyalRoad{}
	_ core.BatchProblem = DeceptiveTrap{}
	_ core.BatchProblem = MMDP{}
	_ core.Batcher      = (*MaxSAT)(nil)
	_ core.Batcher      = (*NKLandscape)(nil)
)

// EvaluateBatch implements core.BatchProblem.
func (p OneMax) EvaluateBatch(genomes []core.Genome, out []float64) {
	for i, g := range genomes {
		out[i] = float64(g.(*genome.BitString).OnesCount())
	}
}

// EvaluateBatch implements core.BatchProblem.
func (p RoyalRoad) EvaluateBatch(genomes []core.Genome, out []float64) {
	for i, g := range genomes {
		out[i] = blockSum(g.(*genome.BitString), p.Blocks, p.K, scoreRoyal)
	}
}

// EvaluateBatch implements core.BatchProblem.
func (p DeceptiveTrap) EvaluateBatch(genomes []core.Genome, out []float64) {
	for i, g := range genomes {
		out[i] = blockSum(g.(*genome.BitString), p.Blocks, p.K, scoreTrap)
	}
}

// EvaluateBatch implements core.BatchProblem.
func (p MMDP) EvaluateBatch(genomes []core.Genome, out []float64) {
	for i, g := range genomes {
		out[i] = blockSum(g.(*genome.BitString), p.Blocks, 6, scoreMMDP)
	}
}

const (
	// laneTile is the widest instance the bit-sliced kernels take: one
	// lane word per gene, 8 KiB of stack. Wider instances use the scalar
	// kernels.
	laneTile = 1024
	// minLanes is the smallest block worth slicing. A block costs its
	// gather and one pass over the instance however few lanes it fills:
	// about four scalar MaxSAT evaluations whatever the instance size,
	// about three NK ones (measured on nk(64,2), nk(256,4), nk(1000,7)).
	minLanes = 4
)

// laneKernel is a compiled instance with both kernels: the scalar
// Evaluate and a bit-sliced one over up to 64 genomes.
type laneKernel interface {
	core.Problem
	evaluateLanes(genomes []core.Genome, out []float64)
}

// evaluateBlocks is the one walker behind both bit-sliced batch forms:
// genomes are taken 64 at a time, one lane each. Which kernel runs
// depends only on the input: sliced says the instance fits the lane
// kernel, and a block must be worth its gather.
func evaluateBlocks(p laneKernel, sliced bool, genomes []core.Genome, out []float64) {
	for base := 0; base < len(genomes); base += 64 {
		end := min(base+64, len(genomes))
		if sliced && end-base >= minLanes {
			p.evaluateLanes(genomes[base:end], out[base:end])
			continue
		}
		for i := base; i < end; i++ {
			out[i] = p.Evaluate(genomes[i])
		}
	}
}

// gatherLanes transposes up to 64 genomes of p's n ≤ laneTile bits into
// lane words, the layout both bit-sliced kernels read: bit l of vars[v]
// is gene v of genomes[l], and lanes past len(genomes) read as all-zero
// genomes. Word w of every genome goes in as 64 rows and comes out of
// the transpose as the lane words of genes 64w..64w+63; Words is read
// whole, tail bits included, which BitString keeps zero. A genome of the
// wrong length is refused before any word is read.
func gatherLanes(p core.Problem, n int, genomes []core.Genome, vars *[laneTile]uint64) {
	var rows [64][]uint64
	for l, g := range genomes {
		b := g.(*genome.BitString)
		if b.N != n {
			badLength(p, b.N, n)
		}
		rows[l] = b.Words
	}
	for w := 0; w<<6 < n; w++ {
		blk := (*[64]uint64)(vars[w<<6 : w<<6+64])
		for l := range genomes {
			blk[l] = rows[l][w]
		}
		clear(blk[len(genomes):])
		genome.Transpose64(blk)
	}
}

// maxSATBatch is the batch form of a MaxSAT instance (core.Batcher): the
// same instance behind the bit-sliced kernel. *MaxSAT hands it out
// rather than carrying EvaluateBatch itself because cmd/pgaperf's smoke
// test fixes which workloads' problem is a core.BatchProblem, and the
// benchmark is not edited by the change it measures. When that list is
// next revised, EvaluateBatch moves onto *MaxSAT and *NKLandscape, and
// Batch and core.Batcher go.
type maxSATBatch struct{ *MaxSAT }

// Batch implements core.Batcher.
func (p *MaxSAT) Batch() core.BatchProblem { return maxSATBatch{p} }

// EvaluateBatch implements core.BatchProblem: the bit-sliced kernel for
// every instance that fits the lane tile.
func (p maxSATBatch) EvaluateBatch(genomes []core.Genome, out []float64) {
	evaluateBlocks(p.MaxSAT, p.nvars <= laneTile, genomes, out)
}

// evaluateLanes evaluates up to 64 genomes at once over gatherLanes'
// layout. A clause is then three XORs and two ORs for all lanes
// together, and the per-lane satisfied counts are kept bit-sliced too:
// bit l of planes[j] is bit j of lane l's count.
func (p *MaxSAT) evaluateLanes(genomes []core.Genome, out []float64) {
	var vars [laneTile]uint64
	gatherLanes(p, p.nvars, genomes, &vars)
	// Count: ripple-carry one satisfied bit per lane into the planes. A
	// count never exceeds len(clauses), so the carry dies by plane
	// bits.Len(len(clauses)) and the loop needs no other bound.
	var planes [64]uint64
	for i := range p.clauses {
		c := &p.clauses[i]
		carry := (vars[c[0].v] ^ -uint64(c[0].neg)) |
			(vars[c[1].v] ^ -uint64(c[1].neg)) |
			(vars[c[2].v] ^ -uint64(c[2].neg))
		for j := 0; carry != 0; j++ {
			planes[j], carry = planes[j]^carry, planes[j]&carry
		}
	}
	// Un-slice: transposed, planes[l] is lane l's count as an integer —
	// the same integer the scalar kernel counts, hence the same float64.
	genome.Transpose64(&planes)
	m := float64(len(p.clauses))
	for l := range out {
		out[l] = float64(planes[l]) / m
	}
}

// nkBatch is the batch form of an NK instance (core.Batcher), handed out
// for the reason maxSATBatch is.
type nkBatch struct{ *NKLandscape }

// Batch implements core.Batcher.
func (p *NKLandscape) Batch() core.BatchProblem { return nkBatch{p} }

// EvaluateBatch implements core.BatchProblem: the lane kernel for every
// instance that fits the lane tile and whose patterns fit a byte.
func (p nkBatch) EvaluateBatch(genomes []core.Genome, out []float64) {
	evaluateBlocks(p.NKLandscape, p.n <= laneTile && p.k+1 <= 8, genomes, out)
}

const (
	// spread8 and spreadTop put the eight bits of a byte b one per byte:
	// b*spread8 is eight copies of b at a stride of nine bits — they do
	// not overlap, so nothing carries — which leaves bit 7-m of b on the
	// top bit of byte m. The byte order is thus reversed: of a group of
	// eight lanes the first is byte 7 of the spread, the last byte 0.
	spread8   = 0x8040201008040201
	spreadTop = 0x8080808080808080
)

// evaluateLanes evaluates up to 64 genomes over gatherLanes' layout,
// eight lanes at a time. For a group, each gene's eight lane bits are
// spread one per byte (once per gene, not once per locus that names it);
// then per gene each of its k+1 loci is one load for the whole group,
// the loads shift-or — first locus most significant, as in Evaluate —
// into eight patterns side by side in one word, and eight lookups feed
// eight accumulators. Every genome's contributions are thus still added
// in gene order i = 0..n-1: the same float64 additions as Evaluate's,
// hence the same bits, while the add chains of different genomes overlap.
// The lanes an unfilled last group does not have are computed as
// all-zero genomes and dropped.
func (p *NKLandscape) evaluateLanes(genomes []core.Genome, out []float64) {
	var vars, spread [laneTile]uint64
	gatherLanes(p, p.n, genomes, &vars)
	stride := p.k + 1
	n := float64(p.n)
	for base := 0; base < len(genomes); base += 8 {
		for v := range spread[:p.n] {
			spread[v] = (vars[v] >> uint(base) & 0xFF * spread8 & spreadTop) >> 7
		}
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for i := 0; i < p.n; i++ {
			// k+1 ≤ 8 one-bit shift-ors keep each pattern inside its byte.
			pat := uint64(0)
			for _, j := range p.loci[i*stride : (i+1)*stride] {
				pat = pat<<1 | spread[j]
			}
			row := uint64(i) << uint(stride)
			a0 += p.table[row|pat>>56]
			a1 += p.table[row|pat>>48&0xFF]
			a2 += p.table[row|pat>>40&0xFF]
			a3 += p.table[row|pat>>32&0xFF]
			a4 += p.table[row|pat>>24&0xFF]
			a5 += p.table[row|pat>>16&0xFF]
			a6 += p.table[row|pat>>8&0xFF]
			a7 += p.table[row|pat&0xFF]
		}
		acc := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, a := range acc[:min(8, len(genomes)-base)] {
			out[base+l] = a / n
		}
	}
}
