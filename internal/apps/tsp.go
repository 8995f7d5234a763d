// Package apps implements the application workloads of the survey's §4 as
// synthetic, self-contained optimisation problems: travelling salesman
// (Sena 2001), task scheduling (Kwok & Ahmad 1997), large-scale feature
// selection (Moser & Murty 2000), image registration (Chalermwat 2001,
// Fan 2002), neuro-genetic time-series prediction (Kwon & Moon 2003),
// reactor-core loading (Pereira & Lapa 2003) and spectral estimation
// (Solano 2000), plus the graph-partitioning problem of §4's opening list
// and Olague (2001)'s photogrammetric camera-network design.
//
// Each workload generates its own data deterministically from a seed —
// the survey's applications used proprietary data (LandSat imagery,
// mammograms, stock prices, reactor specifications); the generators here
// preserve the optimisation structure, which is what drives PGA
// behaviour (substitutions documented in DESIGN.md).
package apps

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// TSP is a travelling-salesman instance over a permutation genome.
type TSP struct {
	name string
	xs   []float64
	ys   []float64
	// optimum is the known optimal tour length, or 0 if unknown.
	optimum float64
}

// NewClusteredTSP creates n cities in k Gaussian clusters (optimum
// unknown) — the structured instances parallel GAs exploit well.
func NewClusteredTSP(n, k int, seed uint64) *TSP {
	r := rng.New(seed)
	t := &TSP{name: fmt.Sprintf("tsp-clustered(%d,%d)", n, k)}
	cx := make([]float64, k)
	cy := make([]float64, k)
	for i := 0; i < k; i++ {
		cx[i], cy[i] = r.Float64(), r.Float64()
	}
	for i := 0; i < n; i++ {
		c := i % k
		t.xs = append(t.xs, cx[c]+0.03*r.NormFloat64())
		t.ys = append(t.ys, cy[c]+0.03*r.NormFloat64())
	}
	return t
}

// NewCircleTSP places n cities evenly on a unit circle; the optimal tour
// is the circle order with known length 2·n·sin(π/n) — the
// efficacy-measurable instance.
func NewCircleTSP(n int) *TSP {
	t := &TSP{name: fmt.Sprintf("tsp-circle(%d)", n)}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		t.xs = append(t.xs, math.Cos(a))
		t.ys = append(t.ys, math.Sin(a))
	}
	t.optimum = 2 * float64(n) * math.Sin(math.Pi/float64(n))
	return t
}

// Name implements core.Problem.
func (t *TSP) Name() string { return t.name }

// Direction implements core.Problem.
func (*TSP) Direction() core.Direction { return core.Minimize }

// NewGenome implements core.Problem.
func (t *TSP) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomPermutation(len(t.xs), r)
}

// Evaluate implements core.Problem: closed-tour Euclidean length.
func (t *TSP) Evaluate(g core.Genome) float64 {
	p := g.(*genome.Permutation).Perm
	total := 0.0
	for i := 0; i < len(p); i++ {
		j := (i + 1) % len(p)
		dx := t.xs[p[i]] - t.xs[p[j]]
		dy := t.ys[p[i]] - t.ys[p[j]]
		total += math.Sqrt(dx*dx + dy*dy)
	}
	return total
}

// Optimum implements core.TargetAware when the optimal length is known.
func (t *TSP) Optimum() float64 { return t.optimum }

// Solved implements core.TargetAware (0.1% tolerance; only meaningful for
// instances with a known optimum).
func (t *TSP) Solved(f float64) bool {
	return t.optimum > 0 && f <= t.optimum*1.001
}

// Scheduling is a task-to-processor assignment problem: minimise the
// makespan of n independent tasks with heterogeneous durations on m
// machines (the scheduling application class of §4; Kwok & Ahmad used a
// PGA for precedence-graph scheduling — independent tasks keep the
// synthetic instance self-contained while preserving the load-balancing
// landscape).
type Scheduling struct {
	durations []float64
	machines  int
}

// NewScheduling creates n tasks with log-normal-ish durations on m
// machines.
func NewScheduling(n, m int, seed uint64) *Scheduling {
	r := rng.New(seed)
	s := &Scheduling{machines: m}
	for i := 0; i < n; i++ {
		s.durations = append(s.durations, math.Exp(r.NormFloat64()*0.8)) // heavy-ish tail
	}
	return s
}

// Name implements core.Problem.
func (s *Scheduling) Name() string {
	return fmt.Sprintf("sched(%dx%d)", len(s.durations), s.machines)
}

// Direction implements core.Problem.
func (*Scheduling) Direction() core.Direction { return core.Minimize }

// NewGenome implements core.Problem.
func (s *Scheduling) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomIntVector(len(s.durations), s.machines, r)
}

// Evaluate implements core.Problem: the makespan of the assignment.
func (s *Scheduling) Evaluate(g core.Genome) float64 {
	v := g.(*genome.IntVector)
	load := make([]float64, s.machines)
	for i, m := range v.Genes {
		load[m] += s.durations[i]
	}
	max := 0.0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
