// Package problems implements the benchmark fitness functions used across
// the experiment suite.
//
// The set deliberately covers the problem spectrum Alba & Troya (2000) used
// to study migration policies — "easy, deceptive, multimodal, NP-Complete,
// and epistatic search landscapes" — plus the classic real-valued test
// functions of the parallel-GA literature (Mühlenbein 1991).
package problems

import (
	"fmt"
	"math"
	"math/bits"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// OneMax is the "easy" landscape: fitness is the number of one-bits.
type OneMax struct {
	// N is the genome length in bits.
	N int
}

// Name implements core.Problem.
func (p OneMax) Name() string { return fmt.Sprintf("onemax(%d)", p.N) }

// Direction implements core.Problem.
func (OneMax) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p OneMax) NewGenome(r *rng.Source) core.Genome { return genome.RandomBitString(p.N, r) }

// Evaluate implements core.Problem.
func (p OneMax) Evaluate(g core.Genome) float64 {
	return float64(g.(*genome.BitString).OnesCount())
}

// Optimum implements core.TargetAware.
func (p OneMax) Optimum() float64 { return float64(p.N) }

// Solved implements core.TargetAware.
func (p OneMax) Solved(f float64) bool { return f >= float64(p.N) }

// blockScore is how a block's unitation (its count of one-bits) scores
// in the three block-structured landscapes.
type blockScore uint8

const (
	scoreRoyal blockScore = iota // k when the block is all ones, else nothing
	scoreTrap                    // k when all ones, else k-1-ones
	scoreMMDP                    // mmdpScore[ones], k = 6
)

// blockSum is the one walker behind RoyalRoad, DeceptiveTrap and MMDP:
// the sum, in block order, of score over the first blocks consecutive
// k-bit blocks of b.
func blockSum(b *genome.BitString, blocks, k int, score blockScore) float64 {
	total := 0.0
	for blk := 0; blk < blocks; blk++ {
		ones := b.OnesCountRange(blk*k, (blk+1)*k)
		switch {
		case score == scoreMMDP:
			total += mmdpScore[ones]
		case ones == k:
			total += float64(k)
		case score == scoreTrap:
			total += float64(k - 1 - ones)
		}
	}
	return total
}

// DeceptiveTrap is the "deceptive" landscape: the genome is split into
// blocks of K bits; each block scores K for all-ones but rewards movement
// toward all-zeros otherwise, so hill-climbing is pulled away from the
// optimum (Goldberg's trap function).
type DeceptiveTrap struct {
	// Blocks is the number of trap blocks.
	Blocks int
	// K is the block size (classically 4 or 5).
	K int
}

// Name implements core.Problem.
func (p DeceptiveTrap) Name() string { return fmt.Sprintf("trap(%dx%d)", p.Blocks, p.K) }

// Direction implements core.Problem.
func (DeceptiveTrap) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p DeceptiveTrap) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(p.Blocks*p.K, r)
}

// Evaluate implements core.Problem.
func (p DeceptiveTrap) Evaluate(g core.Genome) float64 {
	return blockSum(g.(*genome.BitString), p.Blocks, p.K, scoreTrap)
}

// Optimum implements core.TargetAware.
func (p DeceptiveTrap) Optimum() float64 { return float64(p.Blocks * p.K) }

// Solved implements core.TargetAware.
func (p DeceptiveTrap) Solved(f float64) bool { return f >= p.Optimum() }

// MMDP is the Massively Multimodal Deceptive Problem: 6-bit blocks scored
// by a bimodal deceptive subfunction whose maxima are all-zeros and
// all-ones (unitation 0 or 6 → 1.0).
type MMDP struct {
	// Blocks is the number of 6-bit blocks.
	Blocks int
}

// mmdpScore maps block unitation (0..6) to its fitness contribution.
var mmdpScore = [7]float64{1.0, 0.0, 0.360384, 0.640576, 0.360384, 0.0, 1.0}

// Name implements core.Problem.
func (p MMDP) Name() string { return fmt.Sprintf("mmdp(%d)", p.Blocks) }

// Direction implements core.Problem.
func (MMDP) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p MMDP) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(p.Blocks*6, r)
}

// Evaluate implements core.Problem.
func (p MMDP) Evaluate(g core.Genome) float64 {
	return blockSum(g.(*genome.BitString), p.Blocks, 6, scoreMMDP)
}

// Optimum implements core.TargetAware.
func (p MMDP) Optimum() float64 { return float64(p.Blocks) }

// Solved implements core.TargetAware.
func (p MMDP) Solved(f float64) bool { return f >= p.Optimum()-1e-9 }

// PPeaks is the P-PEAKS multimodal problem generator (De Jong): P random
// N-bit peaks; fitness is the maximum normalised closeness to any peak.
type PPeaks struct {
	peaks []*genome.BitString
	n     int
}

// NewPPeaks creates a P-PEAKS instance with p peaks of n bits drawn from
// seed.
func NewPPeaks(p, n int, seed uint64) *PPeaks {
	r := rng.New(seed)
	peaks := make([]*genome.BitString, p)
	for i := range peaks {
		peaks[i] = genome.RandomBitString(n, r)
	}
	return &PPeaks{peaks: peaks, n: n}
}

// Name implements core.Problem.
func (p *PPeaks) Name() string { return fmt.Sprintf("p-peaks(%dx%d)", len(p.peaks), p.n) }

// Direction implements core.Problem.
func (*PPeaks) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p *PPeaks) NewGenome(r *rng.Source) core.Genome { return genome.RandomBitString(p.n, r) }

// Evaluate implements core.Problem.
func (p *PPeaks) Evaluate(g core.Genome) float64 {
	b := g.(*genome.BitString)
	best := 0
	for _, peak := range p.peaks {
		match := p.n - b.Hamming(peak)
		if match > best {
			best = match
		}
	}
	return float64(best) / float64(p.n)
}

// Optimum implements core.TargetAware.
func (*PPeaks) Optimum() float64 { return 1.0 }

// Solved implements core.TargetAware.
func (*PPeaks) Solved(f float64) bool { return f >= 1.0-1e-12 }

// RoyalRoad is Mitchell's Royal Road R1: the genome is divided into
// consecutive blocks; a block contributes its length only when entirely
// ones. Rewards building-block assembly — the schema-processing story the
// survey's §2 reviews.
type RoyalRoad struct {
	// Blocks is the number of blocks.
	Blocks int
	// K is the block length in bits (classically 8).
	K int
}

// Name implements core.Problem.
func (p RoyalRoad) Name() string { return fmt.Sprintf("royalroad(%dx%d)", p.Blocks, p.K) }

// Direction implements core.Problem.
func (RoyalRoad) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p RoyalRoad) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(p.Blocks*p.K, r)
}

// Evaluate implements core.Problem.
func (p RoyalRoad) Evaluate(g core.Genome) float64 {
	return blockSum(g.(*genome.BitString), p.Blocks, p.K, scoreRoyal)
}

// Optimum implements core.TargetAware.
func (p RoyalRoad) Optimum() float64 { return float64(p.Blocks * p.K) }

// Solved implements core.TargetAware.
func (p RoyalRoad) Solved(f float64) bool { return f >= p.Optimum() }

// NKLandscape is Kauffman's NK model — the "epistatic" landscape. Gene i's
// contribution depends on itself and K random other genes through a random
// contribution table. NK optima are NP-hard to find, so the problem is not
// TargetAware.
//
// The instance is held compiled: both tables flat, so an evaluation is one
// pass over loci with no slice-of-slices hop and no branch per bit. It has
// two kernels over them: the scalar one below, and in batch.go a lane
// kernel that serves eight genomes per locus load (Go) or per permute
// (AVX-512).
type NKLandscape struct {
	n, k int
	// loci holds k+1 gene indices per gene — gene i's at
	// [i*(k+1), (i+1)*(k+1)): itself, then its k links.
	loci []uint32
	// table holds 2^(k+1) contributions per gene — gene i's at
	// [i<<(k+1), (i+1)<<(k+1)), indexed by the pattern its loci spell,
	// first locus most significant.
	table []float64
	// vector is whether the lane kernel runs its AVX-512 body: the host
	// has it and k+1 ≤ nkVectorPattern.
	vector bool
}

// nkMaxPattern bounds k+1, the bits of a table index: 2^24 contributions
// per gene is already 128 MiB.
const nkMaxPattern = 24

// identity returns the identity table of [0, n) that the instance
// generators draw from with rng.SampleInto, which leaves it the identity:
// one table per instance, not one per sample.
func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// NewNKLandscape creates an NK instance with n genes, k epistatic links per
// gene, drawn from seed. It panics unless 0 <= k < n and k+1 <= 24: the
// kernels index a 2^(k+1)-entry table per gene. The instance is drawn
// straight into its compiled tables, gene by gene: its k distinct other
// loci, then its contributions.
func NewNKLandscape(n, k int, seed uint64) *NKLandscape {
	if k < 0 || k >= n {
		panic(fmt.Sprintf("problems: NK requires 0 <= k < n, got n=%d k=%d", n, k))
	}
	if k+1 > nkMaxPattern {
		panic(fmt.Sprintf("problems: NK requires k+1 <= %d (2^(k+1) contributions per gene), got k=%d", nkMaxPattern, k))
	}
	stride := k + 1
	p := &NKLandscape{n: n, k: k,
		loci:   make([]uint32, n*stride),
		table:  make([]float64, n<<uint(stride)),
		vector: nkVector && stride <= nkVectorPattern,
	}
	r := rng.New(seed)
	id, others := identity(n-1), make([]int, k)
	for i := 0; i < n; i++ {
		loci := p.loci[i*stride : (i+1)*stride]
		loci[0] = uint32(i)
		for l, j := range r.SampleInto(id, others) {
			if j >= i {
				j++
			}
			loci[1+l] = uint32(j)
		}
		table := p.table[i<<uint(stride) : (i+1)<<uint(stride)]
		for t := range table {
			table[t] = r.Float64()
		}
	}
	return p
}

// Name implements core.Problem.
func (p *NKLandscape) Name() string { return fmt.Sprintf("nk(%d,%d)", p.n, p.k) }

// Direction implements core.Problem.
func (*NKLandscape) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p *NKLandscape) NewGenome(r *rng.Source) core.Genome { return genome.RandomBitString(p.n, r) }

// Evaluate implements core.Problem. Contributions are summed in gene
// order i = 0..n-1, which fixes the float64 result.
func (p *NKLandscape) Evaluate(g core.Genome) float64 {
	b := g.(*genome.BitString)
	if b.N != p.n {
		badLength(p, b.N, p.n)
	}
	w := b.Words
	stride := p.k + 1
	total := 0.0
	for i := 0; i < p.n; i++ {
		pattern := uint64(0)
		for _, j := range p.loci[i*stride : (i+1)*stride] {
			pattern = pattern<<1 | w[j>>6]>>(j&63)&1
		}
		total += p.table[uint64(i)<<uint(stride)|pattern]
	}
	return total / float64(p.n)
}

// SubsetSum is the NP-complete landscape used by the DREAM project tests
// reviewed in §4: choose a subset of weights summing to a target. Fitness
// is -|sum−target| (maximised, optimum 0).
type SubsetSum struct {
	weights []int64
	target  int64
}

// NewSubsetSum creates an instance with n weights drawn from seed; a random
// half-size subset defines the target, so a perfect solution exists.
func NewSubsetSum(n int, seed uint64) *SubsetSum {
	r := rng.New(seed)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(r.Intn(10000) + 1)
	}
	var target int64
	for _, i := range r.Sample(n, n/2) {
		target += w[i]
	}
	return &SubsetSum{weights: w, target: target}
}

// Name implements core.Problem.
func (p *SubsetSum) Name() string { return fmt.Sprintf("subsetsum(%d)", len(p.weights)) }

// Direction implements core.Problem.
func (*SubsetSum) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p *SubsetSum) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(len(p.weights), r)
}

// Evaluate implements core.Problem.
func (p *SubsetSum) Evaluate(g core.Genome) float64 {
	b := g.(*genome.BitString)
	var sum int64
	for w, word := range b.Words {
		for ; word != 0; word &= word - 1 {
			sum += p.weights[w<<6|bits.TrailingZeros64(word)]
		}
	}
	d := sum - p.target
	if d < 0 {
		d = -d
	}
	return -float64(d)
}

// Optimum implements core.TargetAware.
func (*SubsetSum) Optimum() float64 { return 0 }

// Solved implements core.TargetAware.
func (*SubsetSum) Solved(f float64) bool { return f >= 0 }

// Knapsack is the 0/1 knapsack with a penalty for overweight solutions.
type Knapsack struct {
	values, weights []float64
	capacity        float64
}

// NewKnapsack creates an n-item instance from seed with capacity equal to
// half the total weight (the standard hard regime).
func NewKnapsack(n int, seed uint64) *Knapsack {
	r := rng.New(seed)
	v := make([]float64, n)
	w := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		v[i] = float64(r.Intn(100) + 1)
		w[i] = float64(r.Intn(100) + 1)
		total += w[i]
	}
	return &Knapsack{values: v, weights: w, capacity: total / 2}
}

// Name implements core.Problem.
func (p *Knapsack) Name() string { return fmt.Sprintf("knapsack(%d)", len(p.values)) }

// Direction implements core.Problem.
func (*Knapsack) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p *Knapsack) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(len(p.values), r)
}

// Evaluate implements core.Problem. Overweight solutions are penalised
// proportionally to the excess (graded penalty keeps the landscape
// searchable).
func (p *Knapsack) Evaluate(g core.Genome) float64 {
	b := g.(*genome.BitString)
	var value, weight float64
	// Set-bit iteration ascends within each word, so the float summation
	// order matches the old per-bit loop exactly (bit-identical fitness).
	for w, word := range b.Words {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			value += p.values[i]
			weight += p.weights[i]
		}
	}
	if weight > p.capacity {
		return value - 10*(weight-p.capacity)
	}
	return value
}

// MaxSAT is a random 3-SAT maximisation instance: fitness is the fraction
// of satisfied clauses.
//
// The instance is held compiled (one flat satClause per clause) and has
// two kernels over it: the scalar one below, and in batch.go a bit-sliced
// one that evaluates 64 genomes per machine word, and up to 256 in one
// pass over the clauses on its AVX2 body.
type MaxSAT struct {
	nvars   int
	clauses []satClause
	// rows is the clauses in the AVX2 body's form, built only when
	// vector is set: each literal is one row of its polarity table,
	// 2v+neg, three per clause. They are padded to a whole eight-clause
	// group with clauses of the one row 2*nvars — gene nvars, past the
	// genome, so no genome satisfies them — and the pass counts eight at
	// a time with no tail. The scalar kernel keeps satClause's form: on
	// rows it measured about a quarter slower, each literal costing one
	// more shift.
	rows []uint32
	// vector is whether the bit-sliced kernel runs its AVX2 body: on an
	// AVX2 host, for instances of up to satVectorVars variables.
	vector bool
}

// satLit is a compiled literal: true of a genome when gene v != neg.
type satLit struct {
	v   uint32 // the variable: gene v, Words[v>>6]>>(v&63)&1
	neg uint32 // 1 when the literal is negated, else 0
}

// satClause is a compiled clause, the disjunction of its three literals.
type satClause [3]satLit

// maxSATClauses draws m random 3-literal clauses over n variables in
// source form: a literal is var+1, or -(var+1) when negated.
func maxSATClauses(n, m int, seed uint64) [][3]int {
	r := rng.New(seed)
	cl := make([][3]int, m)
	id, vars := identity(n), make([]int, 3)
	for i := range cl {
		r.SampleInto(id, vars)
		for j := 0; j < 3; j++ {
			lit := vars[j] + 1
			if r.Bool() {
				lit = -lit
			}
			cl[i][j] = lit
		}
	}
	return cl
}

// NewMaxSAT creates an instance with n variables and m random 3-literal
// clauses drawn from seed. It panics unless n >= 3 (a clause has three
// distinct variables) and m >= 1 (fitness is a fraction of the clauses).
func NewMaxSAT(n, m int, seed uint64) *MaxSAT {
	if n < 3 || m < 1 {
		panic(fmt.Sprintf("problems: MaxSAT requires n >= 3 and m >= 1, got n=%d m=%d", n, m))
	}
	p := &MaxSAT{nvars: n, clauses: make([]satClause, m), vector: maxSATVector && n <= satVectorVars}
	for i, c := range maxSATClauses(n, m, seed) {
		for j, lit := range c {
			neg := uint32(0)
			if lit < 0 {
				lit, neg = -lit, 1
			}
			p.clauses[i][j] = satLit{v: uint32(lit - 1), neg: neg}
		}
	}
	if p.vector {
		p.rows = make([]uint32, 3*((m+7)&^7))
		for i, c := range p.clauses {
			for j, l := range c {
				p.rows[3*i+j] = 2*l.v + l.neg
			}
		}
		for i := 3 * m; i < len(p.rows); i++ {
			p.rows[i] = uint32(2 * n)
		}
	}
	return p
}

// Name implements core.Problem.
func (p *MaxSAT) Name() string { return fmt.Sprintf("maxsat(%d,%d)", p.nvars, len(p.clauses)) }

// Direction implements core.Problem.
func (*MaxSAT) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (p *MaxSAT) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(p.nvars, r)
}

// Evaluate implements core.Problem: the scalar kernel, one branchless
// pass over the compiled clauses. The count is an integer, so the result
// is the same float64 whichever kernel produced it.
func (p *MaxSAT) Evaluate(g core.Genome) float64 {
	b := g.(*genome.BitString)
	if b.N != p.nvars {
		badLength(p, b.N, p.nvars)
	}
	w := b.Words
	sat := uint64(0)
	for i := range p.clauses {
		c := &p.clauses[i]
		sat += ((w[c[0].v>>6]>>(c[0].v&63) ^ uint64(c[0].neg)) |
			(w[c[1].v>>6]>>(c[1].v&63) ^ uint64(c[1].neg)) |
			(w[c[2].v>>6]>>(c[2].v&63) ^ uint64(c[2].neg))) & 1
	}
	return float64(sat) / float64(len(p.clauses))
}

// badLength reports a genome whose length is not the instance's. The
// compiled kernels index Words directly, so without the check a short
// genome's zero tail would be read as genes.
func badLength(p core.Problem, got, want int) {
	panic(fmt.Sprintf("problems: %s: genome has %d bits, the instance %d", p.Name(), got, want))
}

// finite guards against NaN leaking out of any Evaluate.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("problems: non-finite fitness")
	}
	return f
}
