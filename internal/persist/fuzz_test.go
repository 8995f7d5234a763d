package persist

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/problems"
	"pga/internal/rng"
)

// FuzzUnmarshalPopulation asserts the population decoder never panics,
// never returns a population containing invalid genomes, and accepts only
// canonical encodings — whatever it accepts re-encodes to the identical
// bytes — whatever bytes arrive (a checkpoint read back from disk and a
// frame read off a socket are both untrusted input).
func FuzzUnmarshalPopulation(f *testing.F) {
	// One genuine population per genome class, then near-misses.
	r := rng.New(1)
	for _, g := range []core.Genome{
		genome.RandomBitString(70, r),
		genome.RandomRealVector(3, -1, 1, r),
		genome.RandomIntVector(5, 4, r),
		genome.RandomPermutation(6, r),
	} {
		pop := &core.Population{Members: []*core.Individual{
			{Genome: g, Fitness: r.Float64(), Evaluated: true},
			{Genome: g.Clone()},
		}}
		good, err := MarshalPopulation(pop)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)-3]) // truncated
	}
	f.Add([]byte(population(0)))
	f.Add([]byte(population(math.MaxUint32).individual(tagBits, 1, 0, 0))) // oversized count
	f.Add([]byte(population(1).individual(tagReal, 0, 1, math.MaxUint32))) // oversized length
	f.Add([]byte(population(1).individual(tagBits, 1, 2, 3).u64s(0xf0)))   // dirty tail
	f.Add([]byte(population(1).individual(tagPerm, 1, 0, 2).u32s(0, 0)))   // duplicate perm entry
	f.Add([]byte(population(1).individual(tagInt, 1, 0, 1).u32s(2, 2)))    // int gene == card
	f.Add([]byte(`{"members":[{"genome":{"type":"perm","perm":[0,1]}}]}`)) // format 1
	f.Add([]byte(`garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalPopulation(data)
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent.
		for _, ind := range got.Members {
			if ind.Genome == nil {
				t.Fatal("accepted population with nil genome")
			}
			_ = ind.Genome.Len()
			_ = ind.Genome.String()
			_ = ind.Genome.Clone()
		}
		again, err := MarshalPopulation(got)
		if err != nil {
			t.Fatalf("accepted population does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical encoding:\n in  % x\n out % x", data, again)
		}
	})
}

// FuzzUnmarshalCheckpoint asserts the checkpoint decoder never panics.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	r := rng.New(2)
	pop := core.RandomPopulation(problems.OneMax{N: 8}, 2, r)
	cp, _ := Capture(pop, r, 1, 2)
	blob, _ := cp.Marshal()
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rngState":[0,0,0,0,0]}`))
	f.Add([]byte(`{"population":"AgAAAAA=","rngState":[1,2,3,4,5]}`))     // empty population
	f.Add([]byte(`{"population":{"members":[]},"rngState":[1,2,3,4,5]}`)) // format 1

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		// Restoring may fail (bad population) but must not panic, except
		// for the documented all-zero RNG state, which we screen out.
		if c.RNGState[0]|c.RNGState[1]|c.RNGState[2]|c.RNGState[3] == 0 {
			return
		}
		rr := rng.New(3)
		_, _ = c.Restore(rr)
	})
}

// warmBatch is a batch a decoder has already filled: every genome class
// at lengths on both sides of a word boundary, none of it zero.
func warmBatch(t testing.TB) []*core.Individual {
	r := rng.New(9)
	var members []*core.Individual
	for _, n := range []int{1, 6, 64, 65} {
		for _, g := range []core.Genome{
			genome.RandomBitString(n, r),
			genome.RandomRealVector(n, -2, 3, r),
			genome.RandomIntVector(n, 5, r),
			genome.RandomPermutation(n, r),
		} {
			members = append(members, &core.Individual{Genome: g, Fitness: r.Float64(), Evaluated: true})
		}
	}
	data, err := AppendPopulation(nil, members)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DecodePopulation(data)
	if err != nil {
		t.Fatal(err)
	}
	return warm
}

// bounds snapshots the real bounds batch holds, with the slices they sit
// in.
type bounds struct {
	lo, hi         []float64
	loWant, hiWant []float64
}

func snapshotBounds(batch []*core.Individual) []bounds {
	var out []bounds
	for _, ind := range batch {
		if v, ok := ind.Genome.(*genome.RealVector); ok {
			out = append(out, bounds{v.Lo, v.Hi, append([]float64(nil), v.Lo...), append([]float64(nil), v.Hi...)})
		}
	}
	return out
}

// FuzzDecodePopulationInto holds the decoder's reuse form to the fresh
// one: decoding any bytes over a warm batch accepts or refuses exactly
// as decoding into nothing does, with the same error text, and what it
// accepts equals the fresh result value for value (both re-encode to the
// same bytes). It never writes real bounds in place, and the storage it
// leaves behind — whatever the fuzzed bytes did to it — decodes a later
// valid population right: no stale tail word, no reused genome of the
// wrong length.
func FuzzDecodePopulationInto(f *testing.F) {
	r := rng.New(3)
	for _, g := range []core.Genome{
		genome.RandomBitString(65, r),
		genome.RandomRealVector(6, -2, 3, r),
		genome.RandomRealVector(6, -1, 1, r),
		genome.RandomIntVector(64, 5, r),
		genome.RandomPermutation(6, r),
	} {
		good, err := AppendPopulation(nil, []*core.Individual{{Genome: g, Fitness: 2, Evaluated: true}, {Genome: g.Clone()}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)-3])
	}
	f.Add([]byte(population(1).individual(tagBits, 1, 2, 3).u64s(0xf0))) // dirty tail
	f.Add([]byte(population(1).individual(tagPerm, 1, 0, 2).u32s(0, 0))) // duplicate perm entry
	// The warm batch's short genomes, and again with every real bound
	// moved: each is decoded over a genome of its own class and length.
	// (Seeds stay small: the fuzzer's minimiser is quadratic in input
	// size.)
	same := warmBatch(f)
	moved := warmBatch(f)
	for _, ind := range moved {
		if v, ok := ind.Genome.(*genome.RealVector); ok {
			v.Lo, v.Hi = slices.Clone(v.Lo), slices.Clone(v.Hi)
			v.Lo[0]--
			v.Hi[len(v.Hi)-1]++
		}
	}
	later, err := AppendPopulation(nil, same[3:13])
	if err != nil {
		f.Fatal(err)
	}
	for _, batch := range [][]*core.Individual{same[:8], moved[:8]} {
		data, err := AppendPopulation(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		warm := warmBatch(t)
		held := snapshotBounds(warm)
		fresh, errFresh := DecodePopulation(data)
		got, errWarm := DecodePopulationInto(warm, data)
		if fmt.Sprint(errFresh) != fmt.Sprint(errWarm) {
			t.Fatalf("fresh: %v\nwarm:  %v", errFresh, errWarm)
		}
		if errFresh == nil {
			sameValues(t, "fuzzed", fresh, got)
		}
		for _, b := range held {
			if !slices.Equal(b.lo, b.loWant) || !slices.Equal(b.hi, b.hiWant) {
				t.Fatal("decoding wrote real bounds in place")
			}
		}
		if got == nil {
			got = warm
		}
		want, err := DecodePopulation(later)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodePopulationInto(got, later)
		if err != nil {
			t.Fatalf("a valid population decoded over used storage: %v", err)
		}
		sameValues(t, "later", want, again)
	})
}

// sameValues fails t unless got equals want value for value: both
// encode, to the same bytes.
func sameValues(t *testing.T, what string, want, got []*core.Individual) {
	t.Helper()
	a, err := AppendPopulation(nil, want)
	if err != nil {
		t.Fatalf("%s: fresh result does not encode: %v", what, err)
	}
	b, err := AppendPopulation(nil, got)
	if err != nil {
		t.Fatalf("%s: reused result does not encode: %v", what, err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: reused result differs from fresh:\n fresh % x\n reused % x", what, a, b)
	}
}
