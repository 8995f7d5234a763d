package problems

import (
	"pga/internal/core"
	"pga/internal/genome"
)

// Batched evaluation for the binary landscapes (core.BatchProblem):
// SerialEvaluator and the master–slave farm hand over a whole pending
// set, which amortises the per-call interface dispatch for the popcount
// problems, lets one pass over MaxSAT's clauses serve 64 genomes, and lets
// one walk over NK's loci serve 64 too: eight at a time, with each gene's
// table row held in vector registers on AVX-512 hosts (nk_amd64.s). Every
// EvaluateBatch returns bit-identical fitness to its scalar Evaluate (the
// seam's contract; differential_test.go holds both, on every body the
// host runs, to the pre-compilation per-gene bodies). Problems are shared by farm
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
	// satBlocks is how many 64-genome blocks the vector body of MaxSAT's
	// kernel counts in one pass over the clauses: a variable's lane
	// words in all of them are one YMM word.
	satBlocks = 4
	// minLanes is the smallest block worth slicing. A block costs its
	// gather and one pass over the instance however few lanes it fills:
	// about 1.4–1.8 scalar MaxSAT evaluations, 2–2.7 NK ones on the Go
	// body and 1–1.6 on the AVX-512 one. Measured by
	// BenchmarkLaneBreakEven (ten runs), two lanes win on both MaxSAT
	// instances on either body and on NK's AVX-512 body, but not on NK's
	// Go body, which every other host runs (nk(64,2) 3 of 10); three win
	// on every instance and body. One threshold serves both kernels.
	minLanes = 3
)

// laneKernel is a compiled instance with both kernels: the scalar
// Evaluate and a bit-sliced one over up to laneWidth genomes.
type laneKernel interface {
	core.Problem
	// laneWidth is how many genomes one evaluateLanes call takes: 0 when
	// the instance does not fit the bit-sliced kernel.
	laneWidth() int
	evaluateLanes(genomes []core.Genome, out []float64)
}

// evaluateBlocks is the one walker behind both bit-sliced batch forms:
// genomes are taken laneWidth at a time, and the last fewer than
// minLanes, which are not worth a block's gather, one at a time. Which
// kernel runs depends only on the input.
func evaluateBlocks(p laneKernel, genomes []core.Genome, out []float64) {
	base := 0
	if width := p.laneWidth(); width > 0 {
		for ; len(genomes)-base >= minLanes; base += width {
			end := min(base+width, len(genomes))
			p.evaluateLanes(genomes[base:end], out[base:end])
		}
	}
	for i := base; i < len(genomes); i++ {
		out[i] = p.Evaluate(genomes[i])
	}
}

// laneRows sets rows[l] to the words of genomes[l], refusing a genome
// of the wrong length before any word is read.
func laneRows(p core.Problem, n int, genomes []core.Genome, rows [][]uint64) {
	for l, g := range genomes {
		b := g.(*genome.BitString)
		if b.N != n {
			badLength(p, b.N, n)
		}
		rows[l] = b.Words
	}
}

// gatherLanes transposes up to 64 genomes of p's n ≤ laneTile bits into
// lane words, the layout the Go bodies of both bit-sliced kernels and
// NK's AVX-512 body read: bit l of vars[v] is gene v of genomes[l], and
// lanes past len(genomes) read as all-zero genomes. Word w of every
// genome goes in as 64 rows and comes out of the transpose as the lane
// words of genes 64w..64w+63; Words is read whole, tail bits included,
// which BitString keeps zero.
func gatherLanes(p core.Problem, n int, genomes []core.Genome, vars *[laneTile]uint64) {
	var rows [64][]uint64
	laneRows(p, n, genomes, rows[:])
	for w := 0; w<<6 < n; w++ {
		blk := (*[64]uint64)(vars[w<<6 : w<<6+64])
		for l := range genomes {
			blk[l] = rows[l][w]
		}
		clear(blk[len(genomes):])
		transpose64(blk)
	}
}

// satRow is a row of the polarity table MaxSAT's vector body reads:
// row 2v holds gene v's lane words, one per block, and row 2v+1 their
// complements, so a literal's row in MaxSAT.rows, 2v+neg, holds its
// truth values.
type satRow [satBlocks]uint64

// gatherTable transposes up to satBlocks blocks of 64 genomes into tab,
// block b into column b: word w of every genome goes in as one 64-row
// matrix per block, as in gatherLanes, and the transposed blocks are
// interleaved into the table's rows for genes 64w..64w+63, each lane
// word with its complement (maxSATRowsAVX2). Lanes past len(genomes)
// read as all-zero genomes, and so does row 2*nvars, the padding
// clauses' row: it is never written, or written with gene nvars, a
// tail bit.
func gatherTable(p *MaxSAT, genomes []core.Genome, tab []satRow) {
	var rows [satBlocks * 64][]uint64
	laneRows(p, p.nvars, genomes, rows[:])
	for w := 0; w<<6 < p.nvars; w++ {
		var blk [satBlocks][64]uint64
		for b := 0; b<<6 < len(genomes); b++ {
			for l, r := range rows[b<<6 : min(b<<6+64, len(genomes))] {
				blk[b][l] = r[w]
			}
			transpose64(&blk[b])
		}
		maxSATRowsAVX2(&blk, (*[128]satRow)(tab[w<<7:]))
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
	evaluateBlocks(p.MaxSAT, genomes, out)
}

// laneWidth implements laneKernel: satBlocks blocks on the vector body,
// one on the Go body.
func (p *MaxSAT) laneWidth() int {
	switch {
	case p.vector:
		return satBlocks * 64
	case p.nvars > laneTile:
		return 0
	}
	return 64
}

// evaluateLanes evaluates up to laneWidth genomes at once, on the AVX2
// body when p.vector says this host runs it for p, on the Go body
// otherwise. Both count each lane's satisfied clauses as the same
// integer as Evaluate, hence the same float64.
func (p *MaxSAT) evaluateLanes(genomes []core.Genome, out []float64) {
	if p.vector {
		p.lanesVector(genomes, out)
		return
	}
	p.lanesGo(genomes, out)
}

// satVectorVars is the widest instance the vector body takes: its
// polarity table, which Go zeroes on every call, is then 16 KiB. The
// 64 KiB table of a laneTile-variable instance is more than an L1
// cache, and its zeroing made a one-block batch slower than on the Go
// body (maxsat(300,1200), 49 genomes: 0 of 10 runs won), so wider
// instances take the Go body.
const satVectorVars = 256

// lanesVector is the vector body: up to satBlocks blocks of 64 genomes
// are gathered into a polarity table on the stack and counted in one
// pass over the clauses by the Go body's carry-save tree on YMM words
// (maxsat_amd64.s), which leaves block b's bit-sliced counts in column
// b of planes. It is not inlined, so that the Go body's goroutines do
// not carry the table's frame.
//
//go:noinline
func (p *MaxSAT) lanesVector(genomes []core.Genome, out []float64) {
	var tab [2*satVectorVars + 1]satRow
	gatherTable(p, genomes, tab[:])
	var planes [64]satRow
	groups := len(p.rows) / (3 * 8) // three rows per clause, eight clauses per group
	maxSATCountAVX2(&tab[0], &p.rows[0], groups, &planes)
	m := float64(len(p.clauses))
	for b := 0; b<<6 < len(out); b++ {
		var counts [64]uint64
		for j := range counts {
			counts[j] = planes[j][b]
		}
		transpose64(&counts)
		o := out[b<<6 : min(b<<6+64, len(out))]
		for l := range o {
			o[l] = float64(counts[l]) / m
		}
	}
}

// lanesGo is the Go body, over gatherLanes' layout for up to 64
// genomes. A clause is then three XORs and two ORs for all lanes
// together, and the per-lane satisfied counts are kept bit-sliced too:
// bit l of planes[j] is bit j of lane l's count.
func (p *MaxSAT) lanesGo(genomes []core.Genome, out []float64) {
	var vars [laneTile]uint64
	gatherLanes(p, p.nvars, genomes, &vars)
	// Count (Harley–Seal): eight clauses at a time are absorbed by
	// carry-save adders into the lane words ones, twos and fours, of
	// weight 1, 2 and 4, and only a group's eights carry is rippled into
	// the planes, from plane 3; the m mod 8 tail clauses ripple from plane
	// 0, and ones, twos and fours are flushed at the end. Every lane's sum
	// of weights is its satisfied count, and a count never exceeds
	// len(clauses), so no ripple passes plane bits.Len(len(clauses)).
	var planes [64]uint64
	var ones, twos, fours, twosA, twosB, foursA, foursB, eights uint64
	cl := p.clauses
	full := len(cl) &^ 7
	for i := 0; i < full; i += 8 {
		g := (*[8]satClause)(cl[i : i+8])
		twosA, ones = csa(ones, g[0].lanes(&vars), g[1].lanes(&vars))
		twosB, ones = csa(ones, g[2].lanes(&vars), g[3].lanes(&vars))
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, g[4].lanes(&vars), g[5].lanes(&vars))
		twosB, ones = csa(ones, g[6].lanes(&vars), g[7].lanes(&vars))
		foursB, twos = csa(twos, twosA, twosB)
		eights, fours = csa(fours, foursA, foursB)
		ripple(&planes, 3, eights)
	}
	for i := full; i < len(cl); i++ {
		ripple(&planes, 0, cl[i].lanes(&vars))
	}
	ripple(&planes, 0, ones)
	ripple(&planes, 1, twos)
	ripple(&planes, 2, fours)
	// Un-slice: transposed, planes[l] is lane l's count as an integer —
	// the same integer the scalar kernel counts, hence the same float64.
	transpose64(&planes)
	m := float64(len(p.clauses))
	for l := range out {
		out[l] = float64(planes[l]) / m
	}
}

// lanes is c's truth value in every lane of gatherLanes' layout.
func (c *satClause) lanes(vars *[laneTile]uint64) uint64 {
	return (vars[c[0].v] ^ -uint64(c[0].neg)) |
		(vars[c[1].v] ^ -uint64(c[1].neg)) |
		(vars[c[2].v] ^ -uint64(c[2].neg))
}

// csa is a carry-save adder over 64 lanes: per lane, a+b+c is
// 2*carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// ripple adds carry, one bit per lane of weight 2^j, into the bit-sliced
// counters planes.
func ripple(planes *[64]uint64, j int, carry uint64) {
	for ; carry != 0; j++ {
		planes[j], carry = planes[j]^carry, planes[j]&carry
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
	evaluateBlocks(p.NKLandscape, genomes, out)
}

// laneWidth implements laneKernel: one block, when the instance fits
// the lane tile and its patterns fit a byte.
func (p *NKLandscape) laneWidth() int {
	if p.n <= laneTile && p.k+1 <= 8 {
		return 64
	}
	return 0
}

// nkVectorPattern bounds k+1 for the AVX-512 body of NK's lane kernel
// (nk_amd64.s): a row of up to 32 contributions is four ZMM registers.
// Wider patterns, and hosts without AVX512F and AVX512DQ, take the Go
// body.
const nkVectorPattern = 5

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
// eight lanes at a time, on one of two bodies: the AVX-512 one when
// p.vector says this host runs it for p's k, the Go one otherwise. Both
// give lane l an accumulator that receives gene i's contribution for
// i = 0..n-1 in that order, from +0: the same float64 additions as
// Evaluate's, hence the same bits, while the add chains of different
// genomes overlap. The lanes an unfilled last group does not have are
// computed as all-zero genomes and dropped.
func (p *NKLandscape) evaluateLanes(genomes []core.Genome, out []float64) {
	var vars [laneTile]uint64
	gatherLanes(p, p.n, genomes, &vars)
	var acc [64]float64
	groups := (len(genomes) + 7) / 8
	if p.vector {
		nkLanesAVX512(&p.table[0], &p.loci[0], &vars, p.n, p.k, groups, &acc)
	} else {
		p.lanesGo(&vars, groups, &acc)
	}
	n := float64(p.n)
	for l := range out {
		out[l] = acc[l] / n
	}
}

// lanesGo is the Go body of NK's lane kernel, which runs on every host.
// For a group, each gene's eight lane bits are spread one per byte
// (once per gene, not once per locus that names it); then per gene each
// of its k+1 loci is one load for the whole group, the loads shift-or —
// first locus most significant, as in Evaluate — into eight patterns
// side by side in one word, and eight lookups feed eight accumulators.
func (p *NKLandscape) lanesGo(vars *[laneTile]uint64, groups int, acc *[64]float64) {
	var spread [laneTile]uint64
	stride := p.k + 1
	for base := 0; base < groups*8; base += 8 {
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
		*(*[8]float64)(acc[base : base+8]) = [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	}
}
