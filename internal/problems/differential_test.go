package problems

// Differential tests for the compiled fitness kernels. Evaluation draws
// nothing, so the determinism contract is bit-identical float64 results:
// the per-gene bodies the kernels replaced are kept here as test-only
// references (over the instances' source form — clause literals, link
// lists — not the compiled tables), and Evaluate and EvaluateBatch must
// agree with them under ==, at genome lengths straddling the word
// boundary and batch sizes straddling the 64-lane block.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// refMaxSATEvaluate is MaxSAT.Evaluate as it was before compilation: a
// clause walk with a sign test, a Get and an early break per literal.
func refMaxSATEvaluate(clauses [][3]int, b *genome.BitString) float64 {
	sat := 0
	for _, c := range clauses {
		for _, lit := range c {
			v := lit
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			if b.Get(v-1) != neg {
				sat++
				break
			}
		}
	}
	return float64(sat) / float64(len(clauses))
}

// refNKEvaluate is NKLandscape.Evaluate as it was before compilation.
func refNKEvaluate(links [][]int, table [][]float64, b *genome.BitString) float64 {
	total := 0.0
	for i := range links {
		pattern := 0
		for _, j := range links[i] {
			pattern <<= 1
			if b.Get(j) {
				pattern |= 1
			}
		}
		total += table[i][pattern]
	}
	return total / float64(len(links))
}

// refBlockEvaluate is the block loop RoyalRoad, DeceptiveTrap and MMDP
// each had a copy of, with the problem's own scoring of one block.
func refBlockEvaluate(b *genome.BitString, blocks, k int, score func(ones int) float64) float64 {
	total := 0.0
	for blk := 0; blk < blocks; blk++ {
		ones := 0
		for i := blk * k; i < (blk+1)*k; i++ {
			if b.Get(i) {
				ones++
			}
		}
		total += score(ones)
	}
	return total
}

// diffCase is one instance with its reference evaluation.
type diffCase struct {
	p   core.Problem
	n   int
	ref func(b *genome.BitString) float64
}

// diffSizes straddle the word boundary, the 64-variable transpose block
// and (last) the bit-sliced kernels' lane tile.
var diffSizes = []int{5, 63, 64, 65, 100, 256, 1000, laneTile + 76}

func maxSATCase(n, m int, seed uint64) diffCase {
	clauses := maxSATClauses(n, m, seed)
	return diffCase{NewMaxSAT(n, m, seed), n,
		func(b *genome.BitString) float64 { return refMaxSATEvaluate(clauses, b) }}
}

func nkCase(n, k int, seed uint64) diffCase {
	links, table := nkInstance(n, k, seed)
	return diffCase{NewNKLandscape(n, k, seed), n,
		func(b *genome.BitString) float64 { return refNKEvaluate(links, table, b) }}
}

func diffCases() []diffCase {
	var cases []diffCase
	for _, seed := range []uint64{1, 17, 99} {
		for _, n := range diffSizes {
			cases = append(cases, maxSATCase(n, 4*n, seed), nkCase(n, 4, seed))
		}
	}
	cases = append(cases,
		// Clause counts on both sides of a plane boundary, and tiny ones;
		// on both sides of the carry-save count's eight-clause group
		// (8, 15, 16, 17: a group with and without a tail), and up to a
		// full top plane (1 023, 1 024).
		maxSATCase(100, 1, 3), maxSATCase(100, 7, 3), maxSATCase(100, 255, 3),
		maxSATCase(100, 256, 3), maxSATCase(64, 1031, 3),
		maxSATCase(100, 8, 3), maxSATCase(100, 15, 3), maxSATCase(100, 16, 3),
		maxSATCase(100, 17, 3), maxSATCase(256, 1023, 3), maxSATCase(256, 1024, 3),
		// Both sides of the widest instance MaxSAT's vector body takes.
		maxSATCase(satVectorVars+1, 4*satVectorVars+4, 3),
	)
	// NK's lane kernel at the ends of its pattern range (k+1 = 1 and 8)
	// on every length, and past it: k = 8 falls back to the scalar kernel,
	// as n > laneTile does above. The AVX-512 body takes k ≤ 4 (k = 4 is
	// above), each k through its own loads: every k up to 4, and k = 5,
	// the first on the Go body alone.
	for _, n := range []int{63, 64, 65, 100, 250} {
		for _, k := range []int{0, 1, 2, 3, 5, 7, 8} {
			cases = append(cases, nkCase(n, k, 5))
		}
	}
	cases = append(cases, nkCase(5, 0, 5), nkCase(5, 4, 5), nkCase(6, 5, 5), nkCase(9, 7, 5), nkCase(9, 8, 5))
	for _, s := range [][2]int{{16, 4}, {13, 5}, {1, 4}, {10, 7}} {
		blocks, k := s[0], s[1]
		cases = append(cases,
			diffCase{RoyalRoad{Blocks: blocks, K: k}, blocks * k, func(b *genome.BitString) float64 {
				return refBlockEvaluate(b, blocks, k, func(ones int) float64 {
					if ones == k {
						return float64(k)
					}
					return 0
				})
			}},
			diffCase{DeceptiveTrap{Blocks: blocks, K: k}, blocks * k, func(b *genome.BitString) float64 {
				return refBlockEvaluate(b, blocks, k, func(ones int) float64 {
					if ones == k {
						return float64(k)
					}
					return float64(k - 1 - ones)
				})
			}},
			diffCase{MMDP{Blocks: blocks}, blocks * 6, func(b *genome.BitString) float64 {
				return refBlockEvaluate(b, blocks, 6, func(ones int) float64 { return mmdpScore[ones] })
			}},
		)
	}
	return cases
}

// diffPool returns count n-bit genomes: all-zero, all-one, then random
// ones of mixed density (dense ones satisfy almost every clause, which
// carries the bit-sliced count into its top plane and fills the
// carry-save words).
func diffPool(n, count int, r *rng.Source) []core.Genome {
	pool := make([]core.Genome, count)
	for i := range pool {
		b := genome.NewBitString(n)
		density := []float64{0.5, 0.5, 0.05, 0.95}[i%4]
		for j := 0; j < n; j++ {
			if i == 1 || (i > 1 && r.Chance(density)) {
				b.Set(j, true)
			}
		}
		pool[i] = b
	}
	return pool
}

// lanesBodies returns p on each bit-sliced kernel body this host runs
// for it: an NK instance on the AVX-512 body, or a MaxSAT one on the
// AVX2 body, then a copy on the Go body; any other problem as itself.
func lanesBodies(p core.Problem) []core.Problem {
	switch q := p.(type) {
	case *NKLandscape:
		if q.vector {
			onGo := *q
			onGo.vector = false
			return []core.Problem{p, &onGo}
		}
	case *MaxSAT:
		if q.vector {
			onGo := *q
			onGo.vector = false
			return []core.Problem{p, &onGo}
		}
	}
	return []core.Problem{p}
}

// TestMaxSATVectorBodyWidth: MaxSAT's vector body takes instances of up
// to satVectorVars variables on hosts that run it, and only those carry
// its compiled clauses.
func TestMaxSATVectorBodyWidth(t *testing.T) {
	for _, n := range []int{3, satVectorVars, satVectorVars + 1, laneTile} {
		p := NewMaxSAT(n, 4*n, 1)
		if want := maxSATVector && n <= satVectorVars; p.vector != want {
			t.Errorf("%s: vector body %v, want %v", p.Name(), p.vector, want)
		}
		if p.vector != (p.rows != nil) {
			t.Errorf("%s: vector body %v with %d compiled rows", p.Name(), p.vector, len(p.rows))
		}
		if w := p.laneWidth(); p.vector && w != satBlocks*64 || !p.vector && w != 64 {
			t.Errorf("%s, %s body: lane width %d", p.Name(), bodyName(p), w)
		}
	}
}

// bodyName names the bit-sliced kernel body p runs.
func bodyName(p core.Problem) string {
	switch q := p.(type) {
	case *NKLandscape:
		if q.vector {
			return "avx512"
		}
	case *MaxSAT:
		if q.vector {
			return "avx2"
		}
	}
	return "go"
}

// TestCompiledKernelsMatchReference holds Evaluate and EvaluateBatch to
// the references on every bit-sliced kernel body the host can run.
func TestCompiledKernelsMatchReference(t *testing.T) {
	for _, p := range []core.Problem{NewNKLandscape(5, nkVectorPattern-1, 1), NewMaxSAT(5, 20, 1)} {
		var names []string
		for _, b := range lanesBodies(p) {
			names = append(names, bodyName(b))
		}
		t.Logf("%s bodies on this host: %v", p.Name(), names)
	}
	const poolSize = 300
	// Around the slicing threshold, NK's eight-lane group, and both
	// sides of every 64-lane block and of MaxSAT's four-block pass.
	batches := []int{1, 2, 3, 4, 7, 8, 9, 49, 63, 64, 65, 127, 128, 129, 199, 255, 256, 257, poolSize}
	r := rng.New(23)
	out := make([]float64, poolSize)
	for _, tc := range diffCases() {
		pool := diffPool(tc.n, poolSize, r)
		want := make([]float64, poolSize)
		for i, g := range pool {
			want[i] = tc.ref(g.(*genome.BitString))
			if got := tc.p.Evaluate(g); got != want[i] {
				t.Fatalf("%s: Evaluate(genome %d) = %v, reference %v", tc.p.Name(), i, got, want[i])
			}
		}
		for _, p := range lanesBodies(tc.p) {
			batch, ok := core.BatchOf(p)
			if !ok {
				t.Fatalf("%s: no batch form", p.Name())
			}
			for _, bs := range batches {
				// From both ends of the pool: the first includes the
				// all-zero and all-one genomes, the second does not.
				for _, off := range []int{0, poolSize - bs} {
					got := out[:bs]
					for i := range got {
						got[i] = -1
					}
					batch.EvaluateBatch(pool[off:off+bs], got)
					for i := range got {
						if got[i] != want[off+i] {
							t.Fatalf("%s, %s body: EvaluateBatch(%d genomes)[%d] = %v, reference %v",
								p.Name(), bodyName(p), bs, i, got[i], want[off+i])
						}
					}
				}
			}
		}
	}
}

// TestLanesAllocateNothing: each body's scratch — the lane tile, NK's
// Go body's spread tile and accumulators, MaxSAT's polarity table and
// planes — stays on the stack. A body reached through a func value
// would let the tile escape.
func TestLanesAllocateNothing(t *testing.T) {
	genomes := diffPool(256, satBlocks*64, rng.New(3))
	out := make([]float64, len(genomes))
	for _, p := range []laneKernel{NewNKLandscape(256, 4, 1), NewMaxSAT(256, 1024, 1)} {
		for _, b := range lanesBodies(p) {
			k := b.(laneKernel)
			gs := genomes[:k.laneWidth()]
			o := out[:len(gs)]
			if a := testing.AllocsPerRun(20, func() { k.evaluateLanes(gs, o) }); a != 0 {
				t.Errorf("%s, %s body: %v allocations per block", k.Name(), bodyName(b), a)
			}
		}
	}
}

// TestCompiledKernelsCheckLength: the compiled kernels index Words
// directly, so a genome of the wrong length must be refused by name on
// every path — scalar, inside a full bit-sliced block, at its last lane,
// and in the scalar remainder of a batch — rather than read past its
// genes.
func TestCompiledKernelsCheckLength(t *testing.T) {
	const n = 250
	problems := append(lanesBodies(NewMaxSAT(n, 4*n, 1)), lanesBodies(NewNKLandscape(n, 4, 1))...)
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.HasPrefix(msg, "problems: ") || !strings.Contains(msg, "genome has") {
				t.Fatalf("%s: recovered %q, want a problems: length panic", what, msg)
			}
		}()
		f()
	}
	for _, p := range problems {
		good := func() core.Genome { return genome.NewBitString(n) }
		if p.Evaluate(good()) != p.Evaluate(good()) {
			t.Fatalf("%s: equal-length genome not evaluated", p.Name())
		}
		// 244 keeps the word count, 256 fills the tail word, 190 and 330
		// change the word count.
		for _, bad := range []int{190, 244, 256, 330} {
			what := fmt.Sprintf("%s, %d-bit genome", p.Name(), bad)
			mustPanic(t, what+", Evaluate", func() { p.Evaluate(genome.NewBitString(bad)) })
			bp, ok := core.BatchOf(p)
			if !ok {
				t.Fatalf("%s: no batch form", p.Name())
			}
			// {batch size, index of the bad genome}: a short scalar block,
			// a sliced block's last lane, the middle of a full block, a
			// full block's last lane, the scalar remainder after one, and
			// the second of two full blocks.
			for _, c := range [][2]int{{2, 1}, {40, 39}, {64, 21}, {64, 63}, {67, 66}, {130, 70}} {
				bs, at := c[0], c[1]
				batch := make([]core.Genome, bs)
				for i := range batch {
					batch[i] = good()
				}
				batch[at] = genome.NewBitString(bad)
				mustPanic(t, fmt.Sprintf("%s at %d of %d", what, at, bs), func() {
					bp.EvaluateBatch(batch, make([]float64, bs))
				})
			}
		}
	}
}

// TestBatchFormsSharedAcrossGoroutines: one instance is shared by farm
// workers and island goroutines, so the batch forms keep their scratch on
// the caller's stack. Several goroutines per instance evaluate
// overlapping windows of one pool through one NK and one MaxSAT instance,
// all at once; every result must equal the scalar one (and `make race`
// runs this under -race).
func TestBatchFormsSharedAcrossGoroutines(t *testing.T) {
	const n, poolSize, workers, rounds = 250, 199, 4, 8
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, p := range []core.Problem{NewNKLandscape(n, 4, 1), NewMaxSAT(n, 4*n, 1)} {
		pool := diffPool(n, poolSize, rng.New(41))
		want := make([]float64, poolSize)
		for i, g := range pool {
			want[i] = p.Evaluate(g)
		}
		bp, _ := core.BatchOf(p)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out := make([]float64, poolSize)
				for r := 0; r < rounds; r++ {
					// A different window per worker and round: full blocks,
					// short remainders and scalar-sized tails all overlap.
					off := (w*31 + r*17) % 70
					got := out[:poolSize-off-r]
					bp.EvaluateBatch(pool[off:off+len(got)], got)
					for i := range got {
						if got[i] != want[off+i] {
							t.Errorf("%s, worker %d round %d: genome %d = %v, scalar %v",
								p.Name(), w, r, off+i, got[i], want[off+i])
							return
						}
					}
				}
			}(w)
		}
	}
}

// fuzzCorpus is the shared seed corpus of the batch fuzzers: genome
// bytes and a raw batch size.
var fuzzCorpus = []struct {
	data  []byte
	batch uint8
}{
	{[]byte{}, 0},
	{[]byte{0xFF}, 63},
	{[]byte{0xA5, 0x3C, 0x00, 0xFF, 0x81}, 64},
	{[]byte("bit-sliced"), 2},
	{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 198},
}

// fuzzBatch turns fuzz input into size n-bit genomes: genome l reads
// data as a bit stream from a lane-specific offset; with no data it is
// all-zero.
func fuzzBatch(n int, data []byte, size int) []core.Genome {
	batch := make([]core.Genome, size)
	for l := range batch {
		b := genome.NewBitString(n)
		for v := 0; v < n && len(data) > 0; v++ {
			bit := l*37 + v
			b.Set(v, data[bit>>3%len(data)]>>(bit&7)&1 == 1)
		}
		batch[l] = b
	}
	return batch
}

// fuzzAgree holds EvaluateBatch and Evaluate to the reference on batch.
func fuzzAgree(t *testing.T, p core.Problem, batch []core.Genome, ref func(*genome.BitString) float64) {
	bp, _ := core.BatchOf(p)
	out := make([]float64, len(batch))
	bp.EvaluateBatch(batch, out)
	for l, g := range batch {
		want := ref(g.(*genome.BitString))
		if out[l] != want || p.Evaluate(g) != want {
			t.Fatalf("%s, %s body, lane %d of %d: batch %v, scalar %v, reference %v",
				p.Name(), bodyName(p), l, len(batch), out[l], p.Evaluate(g), want)
		}
	}
}

// FuzzMaxSATBatch: any genome bytes, any batch size from 1 to 300,
// any clause count from 1 to 1 100 — EvaluateBatch and Evaluate against
// the per-literal reference, on every body the host can run. 100
// variables put the tail word and the second transpose block on the
// path; the batch size moves the 64-lane blocks and the vector body's
// four-block pass; the clause count moves the carry-save count's
// eight-clause groups and its tail.
func FuzzMaxSATBatch(f *testing.F) {
	for i, s := range fuzzCorpus {
		// Raw clause counts for 400 clauses (whole groups only), a tail of
		// 1 and of 7, a full top plane, and 1 100.
		f.Add(s.data, uint16(s.batch), []uint16{399, 16, 6, 1023, 1099}[i])
	}
	f.Add([]byte{0x5A, 0xC3}, uint16(256), uint16(200)) // a pass and one genome past it
	f.Fuzz(func(t *testing.T, data []byte, rawBatch, rawClauses uint16) {
		tc := maxSATCase(100, int(rawClauses)%1100+1, 17)
		batch := fuzzBatch(tc.n, data, int(rawBatch)%300+1)
		for _, p := range lanesBodies(tc.p) {
			fuzzAgree(t, p, batch, tc.ref)
		}
	})
}

// FuzzNKBatch: the same for the NK lane kernel against the per-gene
// reference, on every body the host can run, at both ends of its pattern
// range and of the AVX-512 body's (k = 0 and 4), and at k = 5, the first
// past the latter.
func FuzzNKBatch(f *testing.F) {
	cases := []diffCase{nkCase(100, 4, 17), nkCase(100, 0, 17), nkCase(100, 5, 17), nkCase(100, 7, 17)}
	for _, s := range fuzzCorpus {
		f.Add(s.data, s.batch)
	}
	f.Fuzz(func(t *testing.T, data []byte, rawBatch uint8) {
		for _, tc := range cases {
			batch := fuzzBatch(tc.n, data, int(rawBatch)%199+1)
			for _, p := range lanesBodies(tc.p) {
				fuzzAgree(t, p, batch, tc.ref)
			}
		}
	})
}

// BenchmarkLaneBreakEven sizes minLanes: one bit-sliced block of 1–4
// genomes (gather, kernel, un-slice) against as many scalar Evaluate
// calls, on the two problems that have lane kernels and on every body
// the host runs. minLanes is the smallest lane count at which the sliced
// block wins on every instance and body.
func BenchmarkLaneBreakEven(b *testing.B) {
	var instances []core.Problem
	for _, p := range []core.Problem{
		NewMaxSAT(256, 1024, 1), NewMaxSAT(64, 256, 1),
		NewNKLandscape(256, 4, 1), NewNKLandscape(64, 2, 1),
	} {
		instances = append(instances, lanesBodies(p)...)
	}
	for _, inst := range instances {
		p := inst.(laneKernel)
		name := p.Name() + "/" + bodyName(p)
		r := rng.New(1)
		genomes := make([]core.Genome, 4)
		for i := range genomes {
			genomes[i] = p.NewGenome(r)
		}
		out := make([]float64, len(genomes))
		for lanes := 1; lanes <= len(genomes); lanes++ {
			gs, o := genomes[:lanes], out[:lanes]
			b.Run(fmt.Sprintf("%s/lanes-%d/sliced", name, lanes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.evaluateLanes(gs, o)
				}
			})
			b.Run(fmt.Sprintf("%s/lanes-%d/scalar", name, lanes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, g := range gs {
						o[j] = p.Evaluate(g)
					}
				}
			})
		}
	}
}
