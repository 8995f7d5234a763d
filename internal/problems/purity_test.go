package problems

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"pga/internal/core"
	"pga/internal/rng"
)

// TestProblemsArePure runs each role of every registry problem on two
// goroutines at once: the same instance, equal inputs (shared read-only
// genomes) and equal fresh streams. The outputs must be equal. State kept
// in the instance or a package variable either makes them differ or is a
// data race, which `make race` reports; core.Problem promises concurrent
// Evaluate calls are safe.
func TestProblemsArePure(t *testing.T) {
	for _, key := range Keys() {
		spec := registry[key]
		p := spec.Make(max(spec.MinSize, 24), 1)
		r := rng.New(3)
		shared := make([]core.Genome, 8)
		for i := range shared {
			shared[i] = p.NewGenome(r)
		}
		samePair(t, key+"/NewGenome", func(r *rng.Source) any { return p.NewGenome(r) })
		samePair(t, key+"/Evaluate", func(*rng.Source) any {
			out := make([]uint64, len(shared))
			for i, g := range shared {
				out[i] = math.Float64bits(p.Evaluate(g))
			}
			return out
		})
		if bp, ok := core.BatchOf(p); ok {
			samePair(t, key+"/EvaluateBatch", func(*rng.Source) any {
				out := make([]float64, len(shared))
				bp.EvaluateBatch(shared, out)
				bits := make([]uint64, len(out))
				for i, f := range out {
					bits[i] = math.Float64bits(f)
				}
				return bits
			})
		}
	}
}

// samePair runs role four times on each of two goroutines, each with its
// own rng.New(1), and requires equal output sequences.
func samePair(t *testing.T, what string, role func(r *rng.Source) any) {
	t.Helper()
	var out [2][]any
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(1)
			for k := 0; k < 4; k++ {
				out[i] = append(out[i], role(r))
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Errorf("%s: two goroutines with equal inputs and streams disagree", what)
	}
}
