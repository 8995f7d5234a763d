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
// and (last) the bit-sliced kernel's tile.
var diffSizes = []int{5, 63, 64, 65, 100, 256, 1000, satTile + 76}

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
		// Clause counts on both sides of a plane boundary, and tiny ones.
		maxSATCase(100, 1, 3), maxSATCase(100, 7, 3), maxSATCase(100, 255, 3),
		maxSATCase(100, 256, 3), maxSATCase(64, 1031, 3),
		nkCase(65, 0, 5), nkCase(100, 7, 5), nkCase(9, 8, 5),
	)
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
// drives the ripple counter's carries to the top plane).
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

func TestCompiledKernelsMatchReference(t *testing.T) {
	const poolSize = 199
	batches := []int{1, 3, 4, 63, 64, 65, poolSize}
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
		batch, ok := core.BatchOf(tc.p)
		if _, isNK := tc.p.(*NKLandscape); ok == isNK {
			t.Fatalf("%s: has a batch form: %v", tc.p.Name(), ok)
		}
		for _, bs := range batches {
			if !ok {
				break
			}
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
						t.Fatalf("%s: EvaluateBatch(%d genomes)[%d] = %v, reference %v",
							tc.p.Name(), bs, i, got[i], want[off+i])
					}
				}
			}
		}
	}
}

// TestCompiledKernelsCheckLength: the compiled kernels index Words
// directly, so a genome of the wrong length must be refused by name on
// every path — scalar, bit-sliced block, and the scalar remainder of a
// batch — rather than read past its genes.
func TestCompiledKernelsCheckLength(t *testing.T) {
	const n = 250
	problems := []core.Problem{NewMaxSAT(n, 4*n, 1), NewNKLandscape(n, 4, 1)}
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
			for _, bs := range []int{2, 40, 67} {
				if !ok {
					break
				}
				batch := make([]core.Genome, bs)
				for i := range batch {
					batch[i] = good()
				}
				batch[bs-1] = genome.NewBitString(bad)
				mustPanic(t, fmt.Sprintf("%s, batch of %d", what, bs), func() {
					bp.EvaluateBatch(batch, make([]float64, bs))
				})
			}
		}
	}
}

// FuzzMaxSATBatch: any genome bytes, any batch size — EvaluateBatch and
// Evaluate against the per-literal reference. The instance is fixed;
// 100 variables put the tail word and the second transpose block on
// the path.
func FuzzMaxSATBatch(f *testing.F) {
	const n, m, seed = 100, 400, 17
	p := NewMaxSAT(n, m, seed)
	clauses := maxSATClauses(n, m, seed)

	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF}, uint8(63))
	f.Add([]byte{0xA5, 0x3C, 0x00, 0xFF, 0x81}, uint8(64))
	f.Add([]byte("bit-sliced"), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(198))

	f.Fuzz(func(t *testing.T, data []byte, rawBatch uint8) {
		bs := int(rawBatch)%199 + 1
		batch := make([]core.Genome, bs)
		for l := range batch {
			// Genome l reads data as a bit stream from a lane-specific
			// offset; with no data it is all-zero.
			b := genome.NewBitString(n)
			for v := 0; v < n && len(data) > 0; v++ {
				bit := l*37 + v
				b.Set(v, data[bit>>3%len(data)]>>(bit&7)&1 == 1)
			}
			batch[l] = b
		}
		out := make([]float64, bs)
		p.Batch().EvaluateBatch(batch, out)
		for l, g := range batch {
			want := refMaxSATEvaluate(clauses, g.(*genome.BitString))
			if out[l] != want || p.Evaluate(g) != want {
				t.Fatalf("lane %d of %d: batch %v, scalar %v, reference %v",
					l, bs, out[l], p.Evaluate(g), want)
			}
		}
	})
}
