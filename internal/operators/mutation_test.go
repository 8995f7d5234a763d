package operators

import (
	"testing"
	"testing/quick"

	"pga/internal/genome"
	"pga/internal/rng"
)

func TestBitFlipRate(t *testing.T) {
	r := rng.New(1)
	b := genome.NewBitString(10000)
	(BitFlip{P: 0.1}).Mutate(b, r)
	ones := b.OnesCount()
	if ones < 800 || ones > 1200 {
		t.Fatalf("bitflip(0.1) flipped %d/10000", ones)
	}
}

func TestBitFlipDefaultRateFlipsAboutOne(t *testing.T) {
	r := rng.New(2)
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		b := genome.NewBitString(100)
		(BitFlip{}).Mutate(b, r)
		total += b.OnesCount()
	}
	avg := float64(total) / trials
	if avg < 0.8 || avg > 1.2 {
		t.Fatalf("default bitflip flips %.2f bits on average, want ~1", avg)
	}
}

func TestBitFlipPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(BitFlip{}).Mutate(genome.NewRealVector(4, 0, 1), rng.New(1))
}

// inBounds reports whether every gene of v lies within its bounds.
func inBounds(v *genome.RealVector) bool {
	for i, g := range v.Genes {
		if g < v.Lo[i] || g > v.Hi[i] {
			return false
		}
	}
	return true
}

func TestGaussianStaysInBounds(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		v := genome.RandomRealVector(10, -1, 1, r)
		(Gaussian{P: 1, Sigma: 5}).Mutate(v, r)
		if !inBounds(v) {
			t.Fatal("gaussian mutation escaped bounds")
		}
	}
}

func TestGaussianPerturbsRoughlyPFraction(t *testing.T) {
	r := rng.New(4)
	const n = 10000
	v := genome.NewRealVector(n, -10, 10)
	(Gaussian{P: 0.25, Sigma: 0.1}).Mutate(v, r)
	changed := 0
	for _, g := range v.Genes {
		if g != 0 {
			changed++
		}
	}
	if changed < 2200 || changed > 2800 {
		t.Fatalf("gaussian(0.25) changed %d/10000 genes", changed)
	}
}

func TestGaussianDefaultSigmaScalesWithRange(t *testing.T) {
	r := rng.New(5)
	v := genome.NewRealVector(10000, -100, 100)
	(Gaussian{P: 1}).Mutate(v, r)
	// default sigma = 20; sample std should be near 20 (clamping negligible).
	var sum, sumsq float64
	for _, g := range v.Genes {
		sum += g
		sumsq += g * g
	}
	n := float64(len(v.Genes))
	std := sumsq/n - (sum/n)*(sum/n)
	if std < 300 || std > 500 { // variance ≈ 400
		t.Fatalf("default sigma variance = %v, want ≈400", std)
	}
}

func TestPolynomialStaysInBoundsAndPerturbs(t *testing.T) {
	r := rng.New(6)
	v := genome.RandomRealVector(1000, -3, 3, r)
	before := v.Clone().(*genome.RealVector)
	(Polynomial{P: 1, Eta: 20}).Mutate(v, r)
	if !inBounds(v) {
		t.Fatal("polynomial escaped bounds")
	}
	changed := 0
	for i := range v.Genes {
		if v.Genes[i] != before.Genes[i] {
			changed++
		}
	}
	if changed < 900 {
		t.Fatalf("polynomial(p=1) changed only %d/1000", changed)
	}
}

func TestPolynomialEtaDefault(t *testing.T) {
	if (Polynomial{}).eta() != 20 {
		t.Fatal("eta default wrong")
	}
}

func TestUniformResetReal(t *testing.T) {
	r := rng.New(7)
	v := genome.NewRealVector(10000, 5, 6) // all genes 0 → out of [5,6]
	(UniformReset{P: 0.5}).Mutate(v, r)
	reset := 0
	for _, g := range v.Genes {
		if g >= 5 && g <= 6 {
			reset++
		}
	}
	if reset < 4700 || reset > 5300 {
		t.Fatalf("reset(0.5) reset %d/10000", reset)
	}
}

func TestUniformResetInt(t *testing.T) {
	r := rng.New(8)
	v := genome.NewIntVector(10000, 9)
	for i := range v.Genes {
		v.Genes[i] = 3
	}
	(UniformReset{P: 1}).Mutate(v, r)
	if !v.Valid() {
		t.Fatal("reset produced invalid int vector")
	}
	moved := 0
	for _, g := range v.Genes {
		if g != 3 {
			moved++
		}
	}
	// With card 9, ~8/9 of resets land on a different value.
	if moved < 8400 || moved > 9300 {
		t.Fatalf("reset(1) moved %d/10000 genes", moved)
	}
}

func TestUniformResetPanicsOnPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(UniformReset{}).Mutate(genome.IdentityPermutation(4), rng.New(1))
}

func TestSwapPreservesPermutation(t *testing.T) {
	r := rng.New(9)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 1)
		p := genome.RandomPermutation(int(seed%20)+2, rr)
		(Swap{}).Mutate(p, r)
		return p.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapChangesExactlyTwoPositions(t *testing.T) {
	r := rng.New(10)
	p := genome.IdentityPermutation(10)
	(Swap{}).Mutate(p, r)
	diff := 0
	for i, v := range p.Perm {
		if v != i {
			diff++
		}
	}
	if diff != 2 {
		t.Fatalf("swap changed %d positions, want 2", diff)
	}
}

func TestSwapWorksOnAllGenomeTypes(t *testing.T) {
	r := rng.New(11)
	(Swap{}).Mutate(genome.RandomBitString(8, r), r)
	(Swap{}).Mutate(genome.RandomIntVector(8, 3, r), r)
	(Swap{}).Mutate(genome.RandomRealVector(8, 0, 1, r), r)
	(Swap{}).Mutate(genome.RandomPermutation(8, r), r)
	// 1-gene genomes are a no-op, not a crash.
	(Swap{}).Mutate(genome.NewBitString(1), r)
}

func TestInversionPreservesPermutation(t *testing.T) {
	r := rng.New(12)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 7)
		p := genome.RandomPermutation(int(seed%20)+2, rr)
		(Inversion{}).Mutate(p, r)
		return p.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInversionReversesSegment(t *testing.T) {
	// With a deterministic seed, verify the multiset is intact and the
	// permutation differs (statistically) from identity after mutation.
	r := rng.New(13)
	changedAtLeastOnce := false
	for i := 0; i < 50; i++ {
		p := genome.IdentityPermutation(10)
		(Inversion{}).Mutate(p, r)
		if !p.Valid() {
			t.Fatal("inversion broke permutation")
		}
		for j, v := range p.Perm {
			if v != j {
				changedAtLeastOnce = true
			}
		}
	}
	if !changedAtLeastOnce {
		t.Fatal("inversion never changed anything in 50 trials")
	}
}

func TestScramblePreservesPermutation(t *testing.T) {
	r := rng.New(14)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 3)
		p := genome.RandomPermutation(int(seed%20)+2, rr)
		(Scramble{}).Mutate(p, r)
		return p.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionPreservesPermutation(t *testing.T) {
	r := rng.New(15)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 5)
		p := genome.RandomPermutation(int(seed%20)+2, rr)
		(Insertion{}).Mutate(p, r)
		return p.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionMovesItem(t *testing.T) {
	r := rng.New(16)
	moved := false
	for i := 0; i < 50; i++ {
		p := genome.IdentityPermutation(8)
		(Insertion{}).Mutate(p, r)
		if !p.Valid() {
			t.Fatal("insertion broke permutation")
		}
		for j, v := range p.Perm {
			if v != j {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("insertion never moved anything")
	}
}

func TestPermMutatorsPanicOnWrongType(t *testing.T) {
	for _, m := range []Mutator{Inversion{}, Scramble{}, Insertion{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", m.Name())
				}
			}()
			m.Mutate(genome.NewBitString(4), rng.New(1))
		}()
	}
}

func TestMutatorNames(t *testing.T) {
	for _, m := range []Mutator{BitFlip{}, Gaussian{}, Polynomial{}, UniformReset{},
		Swap{}, Inversion{}, Scramble{}, Insertion{}} {
		if m.Name() == "" {
			t.Fatalf("%T has empty name", m)
		}
	}
}
