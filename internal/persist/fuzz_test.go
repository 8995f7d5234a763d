package persist

import (
	"bytes"
	"math"
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
