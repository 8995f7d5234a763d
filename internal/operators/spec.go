package operators

import (
	"math"
	"sort"

	"pga/internal/core"
	"pga/internal/genome"
)

// This file is the operator half of the run-specification vocabulary:
// every concrete operator the library ships is constructible from a
// stable string key plus a flat map of numeric parameters. The
// declarative layer (internal/spec) resolves OperatorSpec values through
// this registry, and the completeness test in spec_keys_test.go pins the
// invariant that no operator is constructible-but-unspeccable: each
// entry of RegisteredOperators has exactly one key here and vice versa.

// Operator kinds of the spec vocabulary.
const (
	KindSelector  = "selector"
	KindCrossover = "crossover"
	KindMutator   = "mutator"
)

// SpecParam documents one tunable numeric parameter of a keyed operator.
// A parameter left out of the map keeps the operator's canonical default
// (the zero value, whose defaulting each operator documents itself).
type SpecParam struct {
	// Name is the key in OperatorSpec.Params.
	Name string
	// Doc is a one-line description for -list output and docs.
	Doc string
	// Min and Max bound a value that is given, both ends included. The
	// operators themselves fall back to their default outside it, so the
	// spec layer rejects such a value rather than run something other
	// than what the document says.
	Min, Max float64
}

// Parameter ranges shared by several entries. tiny stands in for the
// open end of (0, x]; maxDraws caps the per-call draw counts (tournament
// size, cut points) far above any useful value and far below a hang.
const (
	tiny     = math.SmallestNonzeroFloat64
	maxDraws = 1 << 10
)

func probability(name, doc string) SpecParam { return SpecParam{name, doc, 0, 1} }
func positive(name, doc string) SpecParam    { return SpecParam{name, doc, tiny, math.MaxFloat64} }
func draws(doc string) SpecParam             { return SpecParam{"k", doc, 1, maxDraws} }

// SpecEntry is one entry of the operator vocabulary: a stable key, the
// operator kind, its accepted parameters and a constructor from a sparse
// parameter map. Build must accept an empty map (canonical defaults) and
// must ignore keys it does not document — parameter-name validation is
// the spec layer's job, via Params.
type SpecEntry struct {
	Key    string
	Kind   string
	Params []SpecParam
	// Genomes lists the genome classes ("bits", "real", "int", "perm")
	// the operator is closed over; empty means any class. The spec layer
	// rejects operator/problem pairings outside this set at validation
	// time instead of panicking at the first Step.
	Genomes []string
	Build   func(params map[string]float64) any
}

// Param returns the documented parameter called name.
func (e SpecEntry) Param(name string) (SpecParam, bool) {
	for _, p := range e.Params {
		if p.Name == name {
			return p, true
		}
	}
	return SpecParam{}, false
}

// Canonical names the genome class of g and the default crossover and
// mutator of that class — the pairing every front end (spec documents,
// pgarun flags, pgaisland) runs when a slot is left empty.
func Canonical(g core.Genome) (class string, c Crossover, m Mutator) {
	switch g.(type) {
	case *genome.RealVector:
		return "real", SBX{}, Polynomial{}
	case *genome.Permutation:
		return "perm", OX{}, Inversion{}
	case *genome.IntVector:
		return "int", Uniform{}, UniformReset{}
	default:
		return "bits", Uniform{}, BitFlip{}
	}
}

// specRegistry holds the vocabulary in presentation order (selectors,
// then crossovers, then mutators, each alphabetical-ish by family).
var specRegistry = []SpecEntry{
	// Selectors.
	{Key: "tournament", Kind: KindSelector,
		Params: []SpecParam{draws("tournament size (default 2)")},
		Build:  func(p map[string]float64) any { return Tournament{K: int(p["k"])} }},
	{Key: "roulette", Kind: KindSelector,
		Build: func(map[string]float64) any { return Roulette{} }},
	{Key: "rank", Kind: KindSelector,
		Params: []SpecParam{{"sp", "selection pressure in [1,2] (default 1.5)", 1, 2}},
		Build:  func(p map[string]float64) any { return LinearRank{SP: p["sp"]} }},
	{Key: "truncation", Kind: KindSelector,
		Params: []SpecParam{{"frac", "surviving fraction in (0,1] (default 0.5)", tiny, 1}},
		Build:  func(p map[string]float64) any { return Truncation{Frac: p["frac"]} }},
	{Key: "random", Kind: KindSelector,
		Build: func(map[string]float64) any { return Random{} }},
	{Key: "best", Kind: KindSelector,
		Build: func(map[string]float64) any { return Best{} }},

	// Crossovers.
	{Key: "onepoint", Genomes: []string{"bits", "real", "int"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return OnePoint{} }},
	{Key: "twopoint", Genomes: []string{"bits", "real", "int"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return TwoPoint{} }},
	{Key: "kpoint", Genomes: []string{"bits", "real", "int"}, Kind: KindCrossover,
		Params: []SpecParam{draws("number of cut points (default 1)")},
		Build:  func(p map[string]float64) any { return KPoint{K: int(p["k"])} }},
	{Key: "uniform", Genomes: []string{"bits", "real", "int"}, Kind: KindCrossover,
		Params: []SpecParam{probability("p", "per-gene exchange probability (default 0.5)")},
		Build:  func(p map[string]float64) any { return Uniform{P: p["p"]} }},
	{Key: "arithmetic", Genomes: []string{"real"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return Arithmetic{} }},
	{Key: "blx", Genomes: []string{"real"}, Kind: KindCrossover,
		Params: []SpecParam{positive("alpha", "interval extension factor (default 0.5)")},
		Build:  func(p map[string]float64) any { return BLX{Alpha: p["alpha"]} }},
	{Key: "sbx", Genomes: []string{"real"}, Kind: KindCrossover,
		Params: []SpecParam{positive("eta", "distribution index (default 15)")},
		Build:  func(p map[string]float64) any { return SBX{Eta: p["eta"]} }},
	{Key: "ox", Genomes: []string{"perm"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return OX{} }},
	{Key: "pmx", Genomes: []string{"perm"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return PMX{} }},
	{Key: "cx", Genomes: []string{"perm"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return CX{} }},
	{Key: "erx", Genomes: []string{"perm"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return ERX{} }},
	{Key: "uniformword", Genomes: []string{"bits"}, Kind: KindCrossover,
		Build: func(map[string]float64) any { return UniformWord{} }},
	{Key: "kpointword", Genomes: []string{"bits"}, Kind: KindCrossover,
		Params: []SpecParam{draws("number of cut points (default 1)")},
		Build:  func(p map[string]float64) any { return KPointWord{K: int(p["k"])} }},

	// Mutators.
	{Key: "bitflip", Genomes: []string{"bits"}, Kind: KindMutator,
		Params: []SpecParam{probability("p", "per-bit flip probability (default 1/len)")},
		Build:  func(p map[string]float64) any { return BitFlip{P: p["p"]} }},
	{Key: "gaussian", Genomes: []string{"real"}, Kind: KindMutator,
		Params: []SpecParam{
			probability("p", "per-gene perturbation probability (default 1/len)"),
			positive("sigma", "perturbation std-dev (default 10% of range)")},
		Build: func(p map[string]float64) any { return Gaussian{P: p["p"], Sigma: p["sigma"]} }},
	{Key: "polynomial", Genomes: []string{"real"}, Kind: KindMutator,
		Params: []SpecParam{
			probability("p", "per-gene mutation probability (default 1/len)"),
			positive("eta", "distribution index (default 20)")},
		Build: func(p map[string]float64) any { return Polynomial{P: p["p"], Eta: p["eta"]} }},
	{Key: "reset", Genomes: []string{"real", "int"}, Kind: KindMutator,
		Params: []SpecParam{probability("p", "per-gene reset probability (default 1/len)")},
		Build:  func(p map[string]float64) any { return UniformReset{P: p["p"]} }},
	{Key: "swap", Kind: KindMutator,
		Build: func(map[string]float64) any { return Swap{} }},
	{Key: "inversion", Genomes: []string{"perm"}, Kind: KindMutator,
		Build: func(map[string]float64) any { return Inversion{} }},
	{Key: "scramble", Genomes: []string{"perm"}, Kind: KindMutator,
		Build: func(map[string]float64) any { return Scramble{} }},
	{Key: "insertion", Genomes: []string{"perm"}, Kind: KindMutator,
		Build: func(map[string]float64) any { return Insertion{} }},
	{Key: "blockflip", Genomes: []string{"bits"}, Kind: KindMutator,
		Params: []SpecParam{{"k", "AND-ed mask draws per word, flip prob 2^-k (default 6)", 1, 64}},
		Build:  func(p map[string]float64) any { return BlockFlip{K: int(p["k"])} }},
}

// specByKey indexes the registry; built once at init.
var specByKey = func() map[string]SpecEntry {
	m := make(map[string]SpecEntry, len(specRegistry))
	for _, e := range specRegistry {
		m[e.Key] = e
	}
	return m
}()

// SpecEntries returns the operator vocabulary in presentation order.
func SpecEntries() []SpecEntry {
	return append([]SpecEntry(nil), specRegistry...)
}

// LookupSpec returns the vocabulary entry registered under key.
func LookupSpec(key string) (SpecEntry, bool) {
	e, ok := specByKey[key]
	return e, ok
}

// SpecKeys returns the sorted keys of the given kind ("" = all kinds).
func SpecKeys(kind string) []string {
	var out []string
	for _, e := range specRegistry {
		if kind == "" || e.Kind == kind {
			out = append(out, e.Key)
		}
	}
	sort.Strings(out)
	return out
}
