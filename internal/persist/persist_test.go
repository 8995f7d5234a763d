package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/mallocs"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func TestPopulationRoundTripAllGenomeTypes(t *testing.T) {
	r := rng.New(1)
	pop := core.NewPopulation(4)
	for _, g := range []core.Genome{
		genome.RandomBitString(16, r),
		genome.RandomRealVector(5, -2, 3, r),
		genome.RandomIntVector(6, 4, r),
		genome.RandomPermutation(7, r),
	} {
		ind := core.NewIndividual(g)
		ind.Fitness = r.Float64()
		ind.Evaluated = true
		pop.Members = append(pop.Members, ind)
	}
	data, err := MarshalPopulation(pop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPopulation(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("restored %d members", got.Len())
	}
	for i, ind := range got.Members {
		orig := pop.Members[i]
		if ind.Fitness != orig.Fitness || ind.Evaluated != orig.Evaluated {
			t.Fatalf("member %d metadata mismatch", i)
		}
		if ind.Genome.String() != orig.Genome.String() {
			t.Fatalf("member %d genome mismatch: %s vs %s", i, ind.Genome, orig.Genome)
		}
	}
	// Restored real vector keeps bounds.
	rv := got.Members[1].Genome.(*genome.RealVector)
	if rv.Lo[0] != -2 || rv.Hi[0] != 3 {
		t.Fatal("real vector bounds lost")
	}
}

// encoding builds a population encoding by hand, so the rejection tests
// can say exactly which byte is wrong.
type encoding []byte

func population(count uint32) encoding {
	return le.AppendUint32(encoding{codecVersion}, count)
}

func (e encoding) individual(tag, evaluated byte, fitness float64, n uint32) encoding {
	e = append(e, tag, evaluated)
	e = le.AppendUint64(e, math.Float64bits(fitness))
	return le.AppendUint32(e, n)
}

func (e encoding) u32s(xs ...uint32) encoding {
	for _, x := range xs {
		e = le.AppendUint32(e, x)
	}
	return e
}

func (e encoding) u64s(xs ...uint64) encoding {
	for _, x := range xs {
		e = le.AppendUint64(e, x)
	}
	return e
}

// rejects asserts the decoder refuses data with an error mentioning each
// of want.
func rejects(t *testing.T, data []byte, want ...string) {
	t.Helper()
	_, err := UnmarshalPopulation(data)
	if err == nil {
		t.Fatalf("accepted % x", data)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
}

func TestUnmarshalRejectsCorruptPermutation(t *testing.T) {
	rejects(t, population(1).individual(tagPerm, 1, 0, 3).u32s(0, 0, 1), "corrupt permutation")
	rejects(t, population(1).individual(tagPerm, 1, 0, 3).u32s(0, 1, 3), "corrupt permutation")
}

func TestUnmarshalRejectsUnknownType(t *testing.T) {
	rejects(t, population(1).individual(0, 1, 0, 0), "unknown genome class tag 0")
	rejects(t, population(1).individual(tagPerm+1, 1, 0, 0), "unknown genome class tag 5")
}

// TestUnmarshalRejectsBoundsMismatch: the layout stores one n for genes,
// lo and hi, so mismatched bounds cannot be written down at all — the
// encoder refuses them, and a real block short of its 3·n values is a
// length error.
func TestUnmarshalRejectsBoundsMismatch(t *testing.T) {
	bad := &genome.RealVector{Genes: []float64{1, 2}, Lo: []float64{0}, Hi: []float64{5, 5}}
	_, err := MarshalPopulation(&core.Population{Members: []*core.Individual{{Genome: bad}}})
	if err == nil || !strings.Contains(err.Error(), "bounds length mismatch") {
		t.Fatalf("bounds mismatch encoded: %v", err)
	}
	genesAndLoOnly := population(1).individual(tagReal, 1, 0, 2).u64s(0, 0, 0, 0)
	rejects(t, genesAndLoOnly, "real genome length 2 exceeds")
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	rejects(t, []byte("not a population"), "codec version")
	rejects(t, nil, "empty")
	if _, err := UnmarshalCheckpoint([]byte("{")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestUnmarshalRejectsIntGeneOutOfRange(t *testing.T) {
	rejects(t, population(1).individual(tagInt, 1, 0, 2).u32s(4, 3, 4), "gene outside [0, 4)")
	rejects(t, population(1).individual(tagInt, 1, 0, 1).u32s(0, 0), "gene outside [0, 0)")
}

func TestUnmarshalRejectsDirtyTail(t *testing.T) {
	rejects(t, population(1).individual(tagBits, 1, 0, 3).u64s(0b1000), "bits set beyond its length")
	rejects(t, population(1).individual(tagBits, 1, 0, 65).u64s(0, 0b10), "bits set beyond its length")
	if _, err := UnmarshalPopulation(population(1).individual(tagBits, 1, 0, 64).u64s(^uint64(0))); err != nil {
		t.Fatalf("full final word rejected: %v", err)
	}
}

func TestUnmarshalRejectsBadEvaluatedByte(t *testing.T) {
	rejects(t, population(1).individual(tagBits, 2, 0, 0), "evaluated byte 2")
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	rejects(t, append(population(1).individual(tagBits, 1, 0, 1).u64s(1), 0), "1 trailing bytes")
	rejects(t, append(population(0), 0xff), "1 trailing bytes")
}

// TestUnmarshalRejectsOversizedLengths: a count or length the remaining
// bytes cannot back is refused before it sizes an allocation, so these
// 19-byte inputs must cost next to nothing.
func TestUnmarshalRejectsOversizedLengths(t *testing.T) {
	const huge = math.MaxUint32
	cases := map[string][]byte{
		"count":     population(huge).individual(tagBits, 1, 0, 0),
		"bits":      population(1).individual(tagBits, 1, 0, huge),
		"real":      population(1).individual(tagReal, 1, 0, huge),
		"int":       population(1).individual(tagInt, 1, 0, huge).u32s(2),
		"perm":      population(1).individual(tagPerm, 1, 0, huge),
		"truncated": population(2).individual(tagBits, 1, 0, 0)[:12],
		"header":    {codecVersion, 1, 0},
	}
	for name, data := range cases {
		var err error
		allocated := mallocs.Bytes(func() { _, err = UnmarshalPopulation(data) })
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if name != "truncated" && name != "header" && !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: error %q is not a length error", name, err)
		}
		if allocated > 4096 {
			t.Fatalf("%s: rejecting %d bytes allocated %d", name, len(data), allocated)
		}
	}
}

// TestUnmarshalRejectsOldFormat: a format-1 population (a JSON document)
// or checkpoint (its population a JSON object) is refused with an error
// naming both formats.
func TestUnmarshalRejectsOldFormat(t *testing.T) {
	rejects(t, []byte(`{"members":[{"genome":{"type":"bits","bits":[true]},"fitness":1,"evaluated":true}]}`), "format 1", "format 2")
	_, err := UnmarshalCheckpoint([]byte(`{"population":{"members":[]},"rngState":[1,2,3,4,5],"generation":1,"evaluations":2}`))
	if err == nil || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("format-1 checkpoint: %v", err)
	}
}

// TestMarshalRejectsWhatU32CannotHold: the encoder refuses instead of
// truncating.
func TestMarshalRejectsWhatU32CannotHold(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed u32 here")
	}
	big := uint64(math.MaxUint32)
	over := int(big + 1)
	for name, g := range map[string]core.Genome{
		"card":          &genome.IntVector{Genes: []int{0}, Card: over},
		"negative card": &genome.IntVector{Card: -1},
		"int gene":      &genome.IntVector{Genes: []int{over}, Card: 2},
		"negative gene": &genome.IntVector{Genes: []int{-1}, Card: 2},
		"perm entry":    &genome.Permutation{Perm: []int{over}},
		"word count":    &genome.BitString{Words: make([]uint64, 2), N: 64},
		"unsupported":   nil,
	} {
		if _, err := MarshalPopulation(&core.Population{Members: []*core.Individual{{Genome: g}}}); err == nil {
			t.Fatalf("%s: encoded", name)
		}
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 20)
	for i := range want {
		want[i] = r.Uint64()
	}
	r2 := rng.New(999) // different stream entirely
	r2.SetState(st)
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverged at draw %d", i)
		}
	}
}

func TestSetStatePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rng.New(1).SetState([5]uint64{0, 0, 0, 0, 9})
}

// TestExactResume is the package's headline guarantee: checkpoint a run
// mid-flight, continue it, and separately restore the checkpoint into a
// fresh engine — both must produce bit-identical results.
func TestExactResume(t *testing.T) {
	mkEngine := func(r *rng.Source) *ga.Generational {
		return ga.NewGenerational(ga.Config{
			Problem:   problems.OneMax{N: 64},
			PopSize:   40,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}

	// Original run: 10 steps, checkpoint, 10 more steps.
	r1 := rng.New(42)
	e1 := mkEngine(r1)
	for i := 0; i < 10; i++ {
		e1.Step()
	}
	cp, err := Capture(e1.Population(), r1, 10, e1.Evaluations())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e1.Step()
	}
	wantBest := e1.Population().BestFitness(core.Maximize)
	wantMean := e1.Population().MeanFitness()

	// Resumed run: restore into a brand-new engine + stream.
	cp2, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Generation != 10 {
		t.Fatalf("checkpoint generation %d", cp2.Generation)
	}
	// Construct the engine first — engine construction consumes the stream
	// to build its (discarded) initial population — then load the
	// checkpointed state into the same stream.
	r2 := rng.New(0xDEAD)
	e2 := mkEngine(r2)
	pop, err := cp2.Restore(r2)
	if err != nil {
		t.Fatal(err)
	}
	e2.SetPopulation(pop)
	for i := 0; i < 10; i++ {
		e2.Step()
	}
	if got := e2.Population().BestFitness(core.Maximize); got != wantBest {
		t.Fatalf("resumed best %v != original %v", got, wantBest)
	}
	if got := e2.Population().MeanFitness(); got != wantMean {
		t.Fatalf("resumed mean %v != original %v", got, wantMean)
	}
}

// TestRestorePopulationForRestart pins the supervisor's restart path:
// RestorePopulation yields the checkpointed population — size, genomes,
// fitness and evaluated flags intact — without touching any RNG stream,
// because a restarted deme continues on a fresh split stream rather than
// replaying the checkpointed one (restoring it would deterministically
// reproduce the crash).
func TestRestorePopulationForRestart(t *testing.T) {
	r := rng.New(11)
	e := ga.NewGenerational(ga.Config{
		Problem:   problems.OneMax{N: 32},
		PopSize:   12,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       r,
	})
	for i := 0; i < 5; i++ {
		e.Step()
	}
	cp, err := Capture(e.Population(), r, 5, e.Evaluations())
	if err != nil {
		t.Fatal(err)
	}
	wantBest := e.Population().BestFitness(core.Maximize)

	// The fresh stream a restarted deme would run on: RestorePopulation
	// must not advance or rewrite it.
	fresh := rng.New(777)
	before := fresh.State()
	pop, err := cp.RestorePopulation()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.State() != before {
		t.Fatal("RestorePopulation touched an unrelated stream")
	}
	if pop.Len() != 12 {
		t.Fatalf("restored population size %d, want 12", pop.Len())
	}
	for i, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatalf("member %d lost its evaluated flag", i)
		}
	}
	if got := pop.BestFitness(core.Maximize); got != wantBest {
		t.Fatalf("restored best %v != checkpointed %v", got, wantBest)
	}

	// A replacement engine built on the fresh stream accepts the restored
	// population and advances: its stream moves, and the checkpointed
	// stream state is never replayed (first post-restart draws differ from
	// the crashed timeline's).
	e2 := ga.NewGenerational(ga.Config{
		Problem:   problems.OneMax{N: 32},
		PopSize:   12,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       fresh,
	})
	e2.SetPopulation(pop)
	mid := fresh.State()
	e2.Step()
	if fresh.State() == mid {
		t.Fatal("restarted engine did not advance its stream")
	}
	if cp.RNGState == before {
		t.Fatal("fresh stream coincides with the checkpointed one")
	}
}

func TestSetPopulationValidation(t *testing.T) {
	e := ga.NewGenerational(ga.Config{
		Problem: problems.OneMax{N: 8}, PopSize: 10,
		Mutator: operators.BitFlip{}, RNG: rng.New(1),
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("size mismatch accepted")
			}
		}()
		e.SetPopulation(core.NewPopulation(0))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unevaluated population accepted")
			}
		}()
		pop := core.NewPopulation(10)
		for i := 0; i < 10; i++ {
			pop.Members = append(pop.Members, core.NewIndividual(genome.NewBitString(8)))
		}
		e.SetPopulation(pop)
	}()
}

func TestCheckpointJSONStable(t *testing.T) {
	r := rng.New(3)
	pop := core.RandomPopulation(problems.OneMax{N: 8}, 3, r)
	cp, err := Capture(pop, r, 5, 24)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := cp.Marshal()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"population", "rngState", "generation", "evaluations"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("checkpoint JSON missing %q", key)
		}
	}
}

// boundaryLengths straddle the 64-bit word size.
var boundaryLengths = []int{0, 1, 63, 64, 65, 127, 128, 129, 256, 1000}

// awkwardFitness are the float64 values a text format mangles.
var awkwardFitness = []float64{
	math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.0 / 3,
}

// sameIndividual compares everything the codec carries: genes, bounds,
// Card, the fitness bit pattern and Evaluated.
func sameIndividual(t *testing.T, what string, got, want *core.Individual) {
	t.Helper()
	if math.Float64bits(got.Fitness) != math.Float64bits(want.Fitness) || got.Evaluated != want.Evaluated {
		t.Fatalf("%s: fitness/evaluated %x/%v, want %x/%v", what,
			math.Float64bits(got.Fitness), got.Evaluated, math.Float64bits(want.Fitness), want.Evaluated)
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	ok := false
	switch w := want.Genome.(type) {
	case *genome.BitString:
		g, is := got.Genome.(*genome.BitString)
		ok = is && g.N == w.N && slices.Equal(g.Words, w.Words)
	case *genome.RealVector:
		g, is := got.Genome.(*genome.RealVector)
		ok = is && slices.Equal(bits(g.Genes), bits(w.Genes)) &&
			slices.Equal(bits(g.Lo), bits(w.Lo)) && slices.Equal(bits(g.Hi), bits(w.Hi))
	case *genome.IntVector:
		g, is := got.Genome.(*genome.IntVector)
		ok = is && g.Card == w.Card && slices.Equal(g.Genes, w.Genes)
	case *genome.Permutation:
		g, is := got.Genome.(*genome.Permutation)
		ok = is && slices.Equal(g.Perm, w.Perm)
	}
	if !ok {
		t.Fatalf("%s: genome %T %v, want %T %v", what, got.Genome, got.Genome, want.Genome, want.Genome)
	}
}

// TestBitStringRoundTripBoundaryLengths is the codec's round-trip
// property, for all four classes despite its name: at every
// word-straddling length, with every awkward fitness, decode(encode(p))
// carries the same genes, bounds, Card, fitness bits and Evaluated flag,
// restored bit strings keep a clean tail (a dirty one would silently
// corrupt popcount fitness), and encode(decode(b)) == b.
func TestBitStringRoundTripBoundaryLengths(t *testing.T) {
	r := rng.New(9)
	pop := core.NewPopulation(4 * len(boundaryLengths))
	for i, n := range boundaryLengths {
		real := genome.RandomRealVector(n, -2, 3, r)
		if n > 0 {
			real.Genes[0], real.Lo[n-1], real.Hi[0] = math.Copysign(0, -1), math.Inf(-1), math.NaN()
		}
		for j, g := range []core.Genome{
			genome.RandomBitString(n, r),
			real,
			genome.RandomIntVector(n, 1+n%7, r),
			genome.RandomPermutation(n, r),
		} {
			k := 4*i + j
			pop.Members = append(pop.Members, &core.Individual{
				Genome: g, Fitness: awkwardFitness[k%len(awkwardFitness)], Evaluated: k%3 != 0,
			})
		}
	}
	data, err := MarshalPopulation(pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != EncodedLen(pop.Members) {
		t.Fatalf("EncodedLen %d, encoding is %d bytes", EncodedLen(pop.Members), len(data))
	}
	got, err := UnmarshalPopulation(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != pop.Len() {
		t.Fatalf("restored %d members, want %d", got.Len(), pop.Len())
	}
	for i, ind := range got.Members {
		sameIndividual(t, fmt.Sprintf("member %d (len %d)", i, pop.Members[i].Genome.Len()), ind, pop.Members[i])
		if g, ok := ind.Genome.(*genome.BitString); ok && g.N > 0 && g.Words[len(g.Words)-1]&^genome.TailMask(g.N) != 0 {
			t.Fatalf("member %d: restored genome has dirty tail bits", i)
		}
	}
	again, err := MarshalPopulation(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded population changed its bytes")
	}
}

// TestCheckpointPopulationIsTheCodec: the checkpoint envelope carries
// the population as the codec's bytes, not a second format.
func TestCheckpointPopulationIsTheCodec(t *testing.T) {
	r := rng.New(4)
	pop := core.RandomPopulation(problems.OneMax{N: 70}, 3, r)
	cp, err := Capture(pop, r, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MarshalPopulation(pop)
	if !bytes.Equal(cp.Population, want) {
		t.Fatal("Checkpoint.Population is not MarshalPopulation's encoding")
	}
	blob, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Population, want) {
		t.Fatal("population bytes changed through the JSON envelope")
	}
}
