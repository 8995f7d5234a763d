package problems

import (
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

func TestStepFunction(t *testing.T) {
	p := Step(4)
	if p.Direction() != core.Minimize || p.Name() == "" {
		t.Fatalf("%s metadata wrong", p.Name())
	}
	v := genome.NewRealVector(4, p.Lo, p.Hi)
	// All coordinates at -5.1 floor to -6 each.
	for i := range v.Genes {
		v.Genes[i] = -5.1
	}
	if got := p.Evaluate(v); got != -24 {
		t.Fatalf("step(-5.1⁴) = %v, want -24", got)
	}
	if !p.Solved(-24) || p.Solved(-23) {
		t.Fatal("Solved wrong")
	}
	// Plateau: small moves inside a cell change nothing.
	for i := range v.Genes {
		v.Genes[i] = 1.2
	}
	f1 := p.Evaluate(v)
	v.Genes[0] = 1.7
	if p.Evaluate(v) != f1 {
		t.Fatal("step not flat within a cell")
	}
}

func TestFoxholes(t *testing.T) {
	p := Foxholes()
	if p.Direction() != core.Minimize || p.Name() == "" {
		t.Fatalf("%s metadata wrong", p.Name())
	}
	v := genome.NewRealVector(2, p.Lo, p.Hi)
	v.Genes[0], v.Genes[1] = -32, -32
	best := p.Evaluate(v)
	if math.Abs(best-0.998) > 0.01 {
		t.Fatalf("foxholes at (-32,-32) = %v, want ≈0.998", best)
	}
	if !p.Solved(best) {
		t.Fatal("global well not recognised")
	}
	// Another well (16, 16) is a local optimum with a worse value.
	v.Genes[0], v.Genes[1] = 16, 16
	local := p.Evaluate(v)
	if local <= best {
		t.Fatalf("well (16,16)=%v not worse than global %v", local, best)
	}
	// Far from any well the function is high (~500 scale).
	v.Genes[0], v.Genes[1] = -60, 60
	far := p.Evaluate(v)
	if far < 50 {
		t.Fatalf("far point suspiciously good: %v", far)
	}
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		f := p.Evaluate(p.NewGenome(r))
		if math.IsNaN(f) || f < 0.9 {
			t.Fatalf("foxholes out of range: %v", f)
		}
	}
}
