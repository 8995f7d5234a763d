package schema

import (
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func bits(s string) *genome.BitString {
	b := genome.NewBitString(len(s))
	for i, c := range s {
		b.Set(i, c == '1')
	}
	return b
}

func TestParseAndString(t *testing.T) {
	s := MustParse("1*0*")
	if s.String() != "1*0*" {
		t.Fatalf("round trip %q", s.String())
	}
	if _, err := Parse("1x0"); err == nil {
		t.Fatal("invalid char accepted")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("12")
}

func TestMatches(t *testing.T) {
	s := MustParse("1*0")
	if !s.Matches(bits("110")) || !s.Matches(bits("100")) {
		t.Fatal("missed instance")
	}
	if s.Matches(bits("010")) || s.Matches(bits("111")) {
		t.Fatal("false positive")
	}
}

func TestMatchesPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("1*").Matches(bits("100"))
}

func TestCountAndProportion(t *testing.T) {
	pop := core.NewPopulation(4)
	for _, s := range []string{"110", "100", "010", "111"} {
		ind := core.NewIndividual(bits(s))
		ind.Evaluated = true
		pop.Members = append(pop.Members, ind)
	}
	sc := MustParse("1**")
	if Count(pop, sc) != 3 {
		t.Fatalf("count %d", Count(pop, sc))
	}
	if Proportion(pop, sc) != 0.75 {
		t.Fatalf("proportion %v", Proportion(pop, sc))
	}
	if Proportion(core.NewPopulation(0), sc) != 0 {
		t.Fatal("empty proportion not 0")
	}
}

func TestTrackerGrowthUnderSelection(t *testing.T) {
	// Under a OneMax GA, the all-ones building-block schema 11** … must
	// grow in proportion (the schema theorem in action).
	sc := MustParse("11**************")
	tr := NewTracker(sc)
	e := ga.NewGenerational(ga.Config{
		Problem:   problems.OneMax{N: 16},
		PopSize:   60,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(5),
	})
	tr.Observe(e.Population())
	for g := 0; g < 20; g++ {
		e.Step()
		tr.Observe(e.Population())
	}
	if len(tr.History[0]) != 21 {
		t.Fatalf("history length %d", len(tr.History[0]))
	}
	first, last := tr.History[0][0], tr.History[0][20]
	if last <= first {
		t.Fatalf("fit schema did not grow: %v -> %v", first, last)
	}
	if tr.GrowthRate(0) <= 1 {
		t.Fatalf("growth rate %v not > 1", tr.GrowthRate(0))
	}
}

func TestGrowthRateUndefined(t *testing.T) {
	tr := NewTracker(MustParse("1"))
	if tr.GrowthRate(0) != 1 {
		t.Fatal("empty history growth not 1")
	}
	tr.History[0] = []float64{0, 0, 0}
	if tr.GrowthRate(0) != 1 {
		t.Fatal("all-zero history growth not 1")
	}
}

func TestCountSkipsNonBinary(t *testing.T) {
	pop := core.NewPopulation(1)
	ind := core.NewIndividual(genome.NewRealVector(3, 0, 1))
	pop.Members = append(pop.Members, ind)
	if Count(pop, MustParse("***")) != 0 {
		t.Fatal("counted a non-binary genome")
	}
}
