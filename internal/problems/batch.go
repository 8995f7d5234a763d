package problems

import (
	"pga/internal/core"
	"pga/internal/genome"
)

// Batched evaluation for the binary landscapes (core.BatchProblem):
// SerialEvaluator and the master–slave farm hand over a whole pending
// set, which amortises the per-call interface dispatch for the popcount
// problems and, for MaxSAT, lets one pass over the clauses serve 64
// genomes. Every EvaluateBatch returns bit-identical fitness to its
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
	// satTile is the widest instance the bit-sliced kernel takes: one
	// lane word per variable, 8 KiB of stack. Wider instances use the
	// scalar kernel.
	satTile = 1024
	// satMinLanes is the smallest block worth slicing. A block costs one
	// pass over the clauses however few lanes it fills — about four
	// scalar evaluations, whatever the instance size.
	satMinLanes = 4
)

// maxSATBatch is the batch form of a MaxSAT instance (core.Batcher): the
// same instance behind the bit-sliced kernel. *MaxSAT hands it out
// rather than carrying EvaluateBatch itself because cmd/pgaperf's smoke
// test fixes which workloads' problem is a core.BatchProblem, and the
// benchmark is not edited by the change it measures. When that list is
// next revised, EvaluateBatch moves onto *MaxSAT, and Batch and
// core.Batcher go.
type maxSATBatch struct{ *MaxSAT }

// Batch implements core.Batcher.
func (p *MaxSAT) Batch() core.BatchProblem { return maxSATBatch{p} }

// EvaluateBatch implements core.BatchProblem with the bit-sliced
// kernel: genomes are taken 64 at a time, one lane each. Which kernel
// runs depends only on the input — instance width and block size.
func (p maxSATBatch) EvaluateBatch(genomes []core.Genome, out []float64) {
	for base := 0; base < len(genomes); base += 64 {
		end := min(base+64, len(genomes))
		if p.nvars > satTile || end-base < satMinLanes {
			for i := base; i < end; i++ {
				out[i] = p.Evaluate(genomes[i])
			}
			continue
		}
		p.evaluateLanes(genomes[base:end], out[base:end])
	}
}

// evaluateLanes evaluates up to 64 genomes at once. Lane layout: bit l
// of vars[v] is gene v of genomes[l] (unused lanes read as all-zero
// genomes and are dropped at the end). A clause is then three XORs and
// two ORs for all lanes together, and the per-lane satisfied counts are
// kept bit-sliced too: bit l of planes[j] is bit j of lane l's count.
func (p *MaxSAT) evaluateLanes(genomes []core.Genome, out []float64) {
	var vars [satTile]uint64
	var rows [64][]uint64
	for l, g := range genomes {
		b := g.(*genome.BitString)
		if b.N != p.nvars {
			badLength(p, b.N, p.nvars)
		}
		rows[l] = b.Words
	}
	// Gather: word w of every genome goes in as 64 rows and comes out
	// of the transpose as the lane words of variables 64w..64w+63.
	for w := 0; w<<6 < p.nvars; w++ {
		blk := (*[64]uint64)(vars[w<<6 : w<<6+64])
		for l := range genomes {
			blk[l] = rows[l][w]
		}
		clear(blk[len(genomes):])
		genome.Transpose64(blk)
	}
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
