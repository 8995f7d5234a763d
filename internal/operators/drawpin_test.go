package operators

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Operator-level draw pins. Every library crossover and both rank-based
// selectors have one implementation (CrossInto / SelectScratch) behind
// two entry points; the golden traces in internal/equiv pin only the best
// fitness per generation, so this table pins the operators themselves:
// for fixed seeds and parents, a digest of the children (or the chosen
// indices) and of r.State() after every call. The values were recorded
// from the allocating Cross/Select bodies this package used to carry, at
// the commit that deleted them, where they equalled the in-place forms.
// A row changes only when an operator's draw sequence or arithmetic
// changes on purpose — and then the golden traces change with it.

// pinDigest folds children and stream states into two FNV-1a sums.
type pinDigest struct{ out, state uint64 }

// pinFold chains v onto *sum.
func pinFold(sum *uint64, v uint64) {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(*sum >> (8 * i))
		buf[8+i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	*sum = h.Sum64()
}

func (d *pinDigest) genome(g core.Genome) {
	pinFold(&d.out, uint64(g.Len()))
	switch v := g.(type) {
	case *genome.BitString:
		for _, w := range v.Words {
			pinFold(&d.out, w)
		}
	case *genome.IntVector:
		for _, x := range v.Genes {
			pinFold(&d.out, uint64(x))
		}
	case *genome.RealVector:
		for _, xs := range [][]float64{v.Lo, v.Hi, v.Genes} {
			for _, x := range xs {
				pinFold(&d.out, math.Float64bits(x))
			}
		}
	case *genome.Permutation:
		for _, x := range v.Perm {
			pinFold(&d.out, uint64(x))
		}
	default:
		panic(fmt.Sprintf("pinDigest: unknown genome %T", g))
	}
}

func (d *pinDigest) stream(r *rng.Source) {
	for _, w := range r.State() {
		pinFold(&d.state, w)
	}
}

// pinParents builds the fixed parent pairs of one genome class: sizes that
// straddle the degenerate cases (n < 2), the 64-gene word boundary and a
// multi-word tail, two setup seeds each.
func pinParents(class string) [][2]core.Genome {
	var out [][2]core.Genome
	sizes := map[string][]int{
		"bits": {1, 7, 64, 130},
		"ints": {1, 33},
		"real": {1, 10},
		"perm": {1, 2, 9, 40},
	}[class]
	for _, n := range sizes {
		for seed := uint64(1); seed <= 2; seed++ {
			r := rng.New(1000*seed + uint64(n))
			var a, b core.Genome
			switch class {
			case "bits":
				a, b = genome.RandomBitString(n, r), genome.RandomBitString(n, r)
			case "ints":
				a, b = genome.RandomIntVector(n, 7, r), genome.RandomIntVector(n, 7, r)
			case "real":
				a, b = genome.RandomRealVector(n, -5, 5, r), genome.RandomRealVector(n, -5, 5, r)
			case "perm":
				a, b = genome.RandomPermutation(n, r), genome.RandomPermutation(n, r)
			}
			out = append(out, [2]core.Genome{a, b})
		}
	}
	return out
}

func TestCrossoverDrawPins(t *testing.T) {
	pins := []struct {
		op    InPlaceCrossover
		class string
		want  pinDigest
	}{
		{OnePoint{}, "bits", pinDigest{0x3b241bee7eb30a6a, 0xabcda04cf830a6e3}},
		{OnePoint{}, "ints", pinDigest{0xeb3df655f4cbd21a, 0xacbb2f3de28e94a9}},
		{OnePoint{}, "real", pinDigest{0x60bd653afc1ec408, 0xacbb2f3de28e94a9}},
		{TwoPoint{}, "bits", pinDigest{0x6eb086e1a767166b, 0x6dbf2d37c198db65}},
		{TwoPoint{}, "ints", pinDigest{0x9fb615ae55505b7f, 0xc52e9600bbcd045c}},
		{TwoPoint{}, "real", pinDigest{0x6df32a968cd26f34, 0xc52e9600bbcd045c}},
		{KPoint{K: 5}, "bits", pinDigest{0xc7225ad04b54913e, 0x9fff18b3a16d5187}},
		{KPoint{K: 5}, "ints", pinDigest{0x466f91e1db24c5c9, 0x9a149e2397f928a6}},
		{KPoint{K: 5}, "real", pinDigest{0x130eee00328f234d, 0x9a149e2397f928a6}},
		{Uniform{}, "bits", pinDigest{0xdd01efb7d3b257c9, 0x2d2f9da074996992}},
		{Uniform{P: 0.3}, "bits", pinDigest{0x4c19d80e576a6a04, 0x2d2f9da074996992}},
		{Uniform{}, "ints", pinDigest{0x5432d65e8457ced6, 0x317eef556813a144}},
		{Uniform{}, "real", pinDigest{0xb3f7773c927650ec, 0xb79c98aeee1795c5}},
		{UniformWord{}, "bits", pinDigest{0xc05d5ee37c5e83b8, 0x7cceaaeb74b73625}},
		{KPointWord{K: 5}, "bits", pinDigest{0xc7225ad04b54913e, 0x9fff18b3a16d5187}},
		{Arithmetic{}, "real", pinDigest{0xab4eed89e2d0c034, 0xd0f8b5c178e6b2b9}},
		{BLX{}, "real", pinDigest{0xbd79fcf81414a21f, 0x53dd633bd90f62e}},
		{SBX{}, "real", pinDigest{0xe51f1651089124c3, 0xb79c98aeee1795c5}},
		{SBX{Eta: 2}, "real", pinDigest{0x41ca24c3d53af369, 0xb79c98aeee1795c5}},
		{OX{}, "perm", pinDigest{0x48fd5d3c23095118, 0x6dbf2d37c198db65}},
		{PMX{}, "perm", pinDigest{0x879950764f4f9a06, 0x6dbf2d37c198db65}},
		{CX{}, "perm", pinDigest{0xc3cf87f2770fb304, 0xc27e5608515f7313}},
		{ERX{}, "perm", pinDigest{0xa708398ecad9189c, 0xb467bd83dc0e7084}},
	}
	for _, pin := range pins {
		parents := pinParents(pin.class)
		// Both entry points must land on the pin: the Cross wrapper, and
		// CrossInto writing over dirty children with one warm Scratch.
		var viaCross, viaInto pinDigest
		s := &Scratch{}
		for i, p := range parents {
			a, b := p[0], p[1]
			var before, after pinDigest
			before.genome(a)
			before.genome(b)

			r := rng.New(77 + uint64(i))
			c1, c2 := pin.op.Cross(a, b, r)
			viaCross.genome(c1)
			viaCross.genome(c2)
			viaCross.stream(r)

			r = rng.New(77 + uint64(i))
			d1, d2 := b.Clone(), a.Clone()
			pin.op.CrossInto(a, b, d1, d2, r, s)
			viaInto.genome(d1)
			viaInto.genome(d2)
			viaInto.stream(r)

			after.genome(a)
			after.genome(b)
			if after != before {
				t.Fatalf("%s/%s: parents modified", pin.op.Name(), pin.class)
			}
		}
		if viaCross != pin.want {
			t.Errorf("%s/%s: Cross digest {%#x, %#x}, pinned {%#x, %#x}",
				pin.op.Name(), pin.class, viaCross.out, viaCross.state, pin.want.out, pin.want.state)
		}
		if viaInto != pin.want {
			t.Errorf("%s/%s: CrossInto digest {%#x, %#x}, pinned {%#x, %#x}",
				pin.op.Name(), pin.class, viaInto.out, viaInto.state, pin.want.out, pin.want.state)
		}
	}
}

func TestRankSelectorDrawPins(t *testing.T) {
	pins := []struct {
		sel  ScratchSelector
		want pinDigest
	}{
		{LinearRank{}, pinDigest{0xc29efb612037a6e1, 0x9c326b91e20565f4}},
		{LinearRank{SP: 1.9}, pinDigest{0xf47e8b3bbe3ecbf0, 0x9c326b91e20565f4}},
		{Truncation{}, pinDigest{0xff28443f0db53102, 0x4eab42110d8b3f59}},
		{Truncation{Frac: 0.2}, pinDigest{0x9c11327a700ff867, 0x4eab42110d8b3f59}},
	}
	pops := []*core.Population{
		popWithFitness(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5), // ties: the sort must stay stable
		popWithFitness(2, 2, 2, 2, 2),
		popWithFitness(7),
	}
	for _, pin := range pins {
		var viaSelect, viaScratch pinDigest
		s := &Scratch{}
		for i, pop := range pops {
			for _, d := range []core.Direction{core.Maximize, core.Minimize} {
				r1, r2 := rng.New(55+uint64(i)), rng.New(55+uint64(i))
				for k := 0; k < 16; k++ {
					pinFold(&viaSelect.out, uint64(pin.sel.Select(pop, d, r1)))
					pinFold(&viaScratch.out, uint64(pin.sel.SelectScratch(pop, d, r2, s)))
				}
				viaSelect.stream(r1)
				viaScratch.stream(r2)
			}
		}
		if viaSelect != pin.want {
			t.Errorf("%s: Select digest {%#x, %#x}, pinned {%#x, %#x}",
				pin.sel.Name(), viaSelect.out, viaSelect.state, pin.want.out, pin.want.state)
		}
		if viaScratch != pin.want {
			t.Errorf("%s: SelectScratch digest {%#x, %#x}, pinned {%#x, %#x}",
				pin.sel.Name(), viaScratch.out, viaScratch.state, pin.want.out, pin.want.state)
		}
	}
}
