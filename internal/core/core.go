// Package core defines the shared abstractions of the pga library: genomes,
// individuals, populations, problems, stopping criteria and run results.
//
// Every evolutionary engine in this repository — the sequential baselines in
// internal/ga, the island model in internal/island, the master–slave farm in
// internal/masterslave, the cellular GA in internal/cellular, the
// hierarchical GA in internal/hga and the specialized island model in
// internal/sim — is written against these types, which is what lets the
// experiment harness swap models freely (the central comparison of the
// surveyed literature).
package core

import (
	"fmt"
	"math"

	"pga/internal/rng"
)

// Genome is an encoded candidate solution. Implementations live in
// internal/genome (bit strings, real vectors, integer vectors,
// permutations). Genomes are mutable; operators that must not alias call
// Clone first.
type Genome interface {
	// Clone returns a deep copy of the genome.
	Clone() Genome
	// Len returns the number of genes.
	Len() int
	// String renders the genome for logs and debugging.
	String() string
}

// InPlace is an optional Genome extension for allocation-free copying.
// All representations in internal/genome implement it; the engines' pooled
// generation buffers depend on it to rewrite offspring without allocating.
type InPlace interface {
	Genome
	// CopyFrom overwrites the receiver's genes with src's. The receiver
	// and src must share concrete type and length (same problem).
	CopyFrom(src Genome)
}

// CopyGenome copies src into dst, reusing dst's storage when dst
// implements InPlace; otherwise (or when dst is nil) it returns a fresh
// clone. The returned genome never aliases src's gene storage.
func CopyGenome(dst, src Genome) Genome {
	if ip, ok := dst.(InPlace); ok {
		ip.CopyFrom(src)
		return dst
	}
	return src.Clone()
}

// Direction states whether larger or smaller fitness is better.
type Direction int

const (
	// Maximize means larger fitness values are better.
	Maximize Direction = iota
	// Minimize means smaller fitness values are better.
	Minimize
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Better reports whether fitness a is strictly better than b under d.
func (d Direction) Better(a, b float64) bool {
	if d == Maximize {
		return a > b
	}
	return a < b
}

// BetterOrEqual reports whether a is at least as good as b under d.
func (d Direction) BetterOrEqual(a, b float64) bool {
	if d == Maximize {
		return a >= b
	}
	return a <= b
}

// Worst returns the worst possible fitness under d (-Inf when maximizing,
// +Inf when minimizing); useful to initialise "best so far" trackers.
func (d Direction) Worst() float64 {
	if d == Maximize {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// Problem is an optimisation problem: it can create random genomes and
// evaluate their fitness. Implementations must be safe for concurrent
// Evaluate calls (the master–slave model evaluates in parallel); NewGenome
// receives the caller's RNG so it needs no internal state.
type Problem interface {
	// Name identifies the problem in tables and logs.
	Name() string
	// Direction states whether fitness is maximised or minimised.
	Direction() Direction
	// NewGenome returns a fresh random genome drawn with r.
	NewGenome(r *rng.Source) Genome
	// Evaluate returns the fitness of g. It must not modify g.
	Evaluate(g Genome) float64
}

// TargetAware is an optional Problem extension for problems with a known
// optimum, enabling efficacy (hit-rate) measurement.
type TargetAware interface {
	// Optimum returns the fitness value of the global optimum.
	Optimum() float64
	// Solved reports whether fitness f counts as having found the optimum
	// (problems with real-valued fitness use a tolerance).
	Solved(f float64) bool
}

// Individual pairs a genome with its (possibly not yet computed) fitness.
type Individual struct {
	Genome    Genome
	Fitness   float64
	Evaluated bool
}

// NewIndividual returns an unevaluated individual wrapping g.
func NewIndividual(g Genome) *Individual {
	return &Individual{Genome: g}
}

// Clone returns a deep copy of the individual, including fitness state.
func (ind *Individual) Clone() *Individual {
	return &Individual{Genome: ind.Genome.Clone(), Fitness: ind.Fitness, Evaluated: ind.Evaluated}
}

// CopyFrom overwrites ind with a deep copy of src, reusing the existing
// genome storage when possible — the allocation-free form of Clone for
// pooled generation buffers and best-so-far trackers.
func (ind *Individual) CopyFrom(src *Individual) {
	ind.Genome = CopyGenome(ind.Genome, src.Genome)
	ind.Fitness = src.Fitness
	ind.Evaluated = src.Evaluated
}

// Invalidate marks the fitness as stale (after a mutating operator).
func (ind *Individual) Invalidate() { ind.Evaluated = false }

// String implements fmt.Stringer.
func (ind *Individual) String() string {
	if !ind.Evaluated {
		return fmt.Sprintf("{%s fit=?}", ind.Genome)
	}
	return fmt.Sprintf("{%s fit=%g}", ind.Genome, ind.Fitness)
}

// Population is an ordered collection of individuals (a deme, in the
// island-model vocabulary of the survey).
type Population struct {
	Members []*Individual
}

// NewPopulation returns an empty population with capacity n.
func NewPopulation(n int) *Population {
	return &Population{Members: make([]*Individual, 0, n)}
}

// RandomPopulation creates and evaluates n random individuals of p using r.
func RandomPopulation(p Problem, n int, r *rng.Source) *Population {
	pop := NewPopulation(n)
	for i := 0; i < n; i++ {
		ind := NewIndividual(p.NewGenome(r))
		ind.Fitness = p.Evaluate(ind.Genome)
		ind.Evaluated = true
		pop.Members = append(pop.Members, ind)
	}
	return pop
}

// Len returns the number of individuals.
func (pop *Population) Len() int { return len(pop.Members) }

// Clone returns a deep copy of the population.
func (pop *Population) Clone() *Population {
	out := NewPopulation(pop.Len())
	for _, ind := range pop.Members {
		out.Members = append(out.Members, ind.Clone())
	}
	return out
}

// Best returns the index of the best evaluated individual under d, or -1
// if the population is empty.
func (pop *Population) Best(d Direction) int {
	best := -1
	bf := d.Worst()
	for i, ind := range pop.Members {
		if ind.Evaluated && (best == -1 || d.Better(ind.Fitness, bf)) {
			best, bf = i, ind.Fitness
		}
	}
	return best
}

// Worst returns the index of the worst evaluated individual under d, or -1
// if the population is empty.
func (pop *Population) Worst(d Direction) int {
	worst := -1
	var wf float64
	for i, ind := range pop.Members {
		if !ind.Evaluated {
			continue
		}
		if worst == -1 || d.Better(wf, ind.Fitness) {
			worst, wf = i, ind.Fitness
		}
	}
	return worst
}

// BestFitness returns the best fitness in the population under d, or
// d.Worst() if empty.
func (pop *Population) BestFitness(d Direction) float64 {
	i := pop.Best(d)
	if i < 0 {
		return d.Worst()
	}
	return pop.Members[i].Fitness
}

// MeanFitness returns the mean fitness over evaluated members (0 if none).
func (pop *Population) MeanFitness() float64 {
	sum, n := 0.0, 0
	for _, ind := range pop.Members {
		if ind.Evaluated {
			sum += ind.Fitness
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// StdFitness returns the population fitness standard deviation over
// evaluated members (0 if fewer than two).
func (pop *Population) StdFitness() float64 {
	mean := pop.MeanFitness()
	sum, n := 0.0, 0
	for _, ind := range pop.Members {
		if ind.Evaluated {
			d := ind.Fitness - mean
			sum += d * d
			n++
		}
	}
	if n < 2 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Replace swaps in ind at index i, returning the previous occupant.
func (pop *Population) Replace(i int, ind *Individual) *Individual {
	old := pop.Members[i]
	pop.Members[i] = ind
	return old
}

// Evaluator abstracts how a population's pending fitness evaluations are
// performed. The sequential engines use SerialEvaluator; the master–slave
// model substitutes a parallel farm. Implementations must leave every
// member evaluated.
type Evaluator interface {
	// EvaluateAll computes fitness for every member with Evaluated == false.
	EvaluateAll(p Problem, pop *Population)
	// Evaluations returns the cumulative number of Evaluate calls made.
	Evaluations() int64
}

// BatchProblem is an optional Problem extension for fitness functions
// that can amortise per-call overhead across many genomes (the
// evaluation-effort lever of Harada, Alba & Luque's methodology):
// SerialEvaluator and the master–slave farm hand it whole pending sets
// at once. EvaluateBatch must agree bit-for-bit with Evaluate on every
// genome — batching is a throughput optimisation, never a semantic one.
type BatchProblem interface {
	Problem
	// EvaluateBatch writes Evaluate(genomes[i]) into out[i] for every i.
	// len(out) == len(genomes); genomes must not be modified.
	EvaluateBatch(genomes []Genome, out []float64)
}

// Batcher is a Problem that is not itself a BatchProblem but hands out
// a batch form of itself: the same instance and the same fitness, behind
// a kernel that wants many genomes per call. The scalar path (CachedProblem,
// a farm worker with fault injection, a steady-state birth) never asks.
type Batcher interface {
	Problem
	// Batch returns the batch form. It must not allocate: evaluators
	// ask once per pending set.
	Batch() BatchProblem
}

// BatchOf returns the batch form of p: p itself when it is a
// BatchProblem, what it hands out when it is a Batcher. It is the one
// test the evaluators dispatch on.
func BatchOf(p Problem) (BatchProblem, bool) {
	switch q := p.(type) {
	case BatchProblem:
		return q, true
	case Batcher:
		return q.Batch(), true
	}
	return nil, false
}

// SerialEvaluator evaluates pending individuals in the caller's
// goroutine, one batch at a time when the problem supports it.
type SerialEvaluator struct {
	count int64

	// Reusable batch buffers (grown once per population shape, then
	// steady-state allocation-free — the alloc gates cover this path).
	idx     []int
	genomes []Genome
	out     []float64
}

// EvaluateAll implements Evaluator.
func (e *SerialEvaluator) EvaluateAll(p Problem, pop *Population) {
	if bp, ok := BatchOf(p); ok {
		e.evaluateBatch(bp, pop)
		return
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			ind.Fitness = p.Evaluate(ind.Genome)
			ind.Evaluated = true
			e.count++
		}
	}
}

// evaluateBatch gathers the pending members and evaluates them with one
// EvaluateBatch call.
func (e *SerialEvaluator) evaluateBatch(bp BatchProblem, pop *Population) {
	e.ensureBatchBuffers(pop.Len())
	pending := 0
	for i, ind := range pop.Members {
		if !ind.Evaluated {
			e.idx[pending] = i
			e.genomes[pending] = ind.Genome
			pending++
		}
	}
	if pending == 0 {
		return
	}
	bp.EvaluateBatch(e.genomes[:pending], e.out[:pending])
	for k := 0; k < pending; k++ {
		ind := pop.Members[e.idx[k]]
		ind.Fitness = e.out[k]
		ind.Evaluated = true
		e.genomes[k] = nil // do not pin genomes between calls
	}
	e.count += int64(pending)
}

// ensureBatchBuffers grows the reusable batch buffers to hold n entries
// (first call or population growth only).
func (e *SerialEvaluator) ensureBatchBuffers(n int) {
	if cap(e.idx) >= n {
		return
	}
	e.idx = make([]int, n)
	e.genomes = make([]Genome, n)
	e.out = make([]float64, n)
}

// Evaluations implements Evaluator.
func (e *SerialEvaluator) Evaluations() int64 { return e.count }
