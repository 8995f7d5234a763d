package problems

import (
	"fmt"
	"sort"

	"pga/internal/apps"
	"pga/internal/core"
)

// Spec describes an instantiable benchmark problem for CLIs and the
// experiment harness.
type Spec struct {
	// Key is the registry lookup name.
	Key string
	// Class is the landscape class in Alba & Troya's vocabulary:
	// easy, deceptive, multimodal, np-complete or epistatic.
	Class string
	// MinSize is the smallest size Make accepts; 0 marks a fixed-size
	// problem (foxholes), whose Make ignores size. Callers check it: below
	// it Make may panic (nk needs K = 4 < N, maxsat three distinct
	// variables per clause) or build an instance whose fitness is not
	// finite (stock, doppler-ar2).
	MinSize int
	// Make builds an instance with the given size parameter and seed.
	// The meaning of size is problem specific (bits, dimensions, items).
	Make func(size int, seed uint64) core.Problem
}

// registry holds the built-in problem catalogue.
var registry = map[string]Spec{
	"onemax": {Key: "onemax", Class: "easy", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return OneMax{N: size} }},
	"trap": {Key: "trap", Class: "deceptive", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return DeceptiveTrap{Blocks: size / 4, K: 4} }},
	"mmdp": {Key: "mmdp", Class: "deceptive", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return MMDP{Blocks: size / 6} }},
	"ppeaks": {Key: "ppeaks", Class: "multimodal", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return NewPPeaks(20, size, seed) }},
	"royalroad": {Key: "royalroad", Class: "easy", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return RoyalRoad{Blocks: size / 8, K: 8} }},
	"nk": {Key: "nk", Class: "epistatic", MinSize: 5,
		Make: func(size int, seed uint64) core.Problem { return NewNKLandscape(size, 4, seed) }},
	"subsetsum": {Key: "subsetsum", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return NewSubsetSum(size, seed) }},
	"knapsack": {Key: "knapsack", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return NewKnapsack(size, seed) }},
	"maxsat": {Key: "maxsat", Class: "np-complete", MinSize: 3,
		Make: func(size int, seed uint64) core.Problem { return NewMaxSAT(size, size*4, seed) }},
	"sphere": {Key: "sphere", Class: "easy", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Sphere(size) }},
	"rastrigin": {Key: "rastrigin", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Rastrigin(size) }},
	"rosenbrock": {Key: "rosenbrock", Class: "epistatic", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Rosenbrock(size) }},
	"ackley": {Key: "ackley", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Ackley(size) }},
	"griewank": {Key: "griewank", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Griewank(size) }},
	"schwefel": {Key: "schwefel", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Schwefel(size) }},
	"step": {Key: "step", Class: "easy", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return Step(size) }},
	"foxholes": {Key: "foxholes", Class: "multimodal",
		Make: func(size int, _ uint64) core.Problem { return Foxholes() }},
	"qap": {Key: "qap", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return NewQAP(size, seed) }},

	// Rastrigin under the binary wrapper, 16 bits per variable (size is
	// the dimension), plain and Gray decoded.
	"rastrigin-bin16": {Key: "rastrigin-bin16", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return &BinaryEncoded{Inner: Rastrigin(size), BitsPerVar: 16} }},
	"rastrigin-gray16": {Key: "rastrigin-gray16", Class: "multimodal", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem {
			return &BinaryEncoded{Inner: Rastrigin(size), BitsPerVar: 16, Gray: true}
		}},

	// The application workloads of internal/apps, with every constructor
	// argument but the main size fixed.
	"tsp-circle": {Key: "tsp-circle", Class: "np-complete", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { return apps.NewCircleTSP(size) }},
	"tsp-clustered": {Key: "tsp-clustered", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return apps.NewClusteredTSP(size, 5, seed) }},
	"sched": {Key: "sched", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return apps.NewScheduling(size, 6, seed) }},
	"featsel": {Key: "featsel", Class: "np-complete", MinSize: 5, // the 5 informative features
		Make: func(size int, seed uint64) core.Problem { return apps.NewFeatureSelection(size, 5, 3, 15, seed) }},
	"imgreg": {Key: "imgreg", Class: "multimodal", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem {
			ir := apps.NewImageRegistration(size, seed)
			ir.Downsample = 2
			return ir
		}},
	"stock": {Key: "stock", Class: "epistatic", MinSize: 9, // one training window of 5 returns
		Make: func(size int, seed uint64) core.Problem { return apps.NewStockPrediction(size, 5, 4, seed) }},
	"doppler-ar2": {Key: "doppler-ar2", Class: "easy", MinSize: 3, // one residual after 2 lags
		Make: func(size int, seed uint64) core.Problem { return apps.NewSpectralEstimation(size, seed) }},
	"reactor": {Key: "reactor", Class: "np-complete", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return apps.NewReactorCore(size, 3, seed) }},
	"graphpart": {Key: "graphpart", Class: "np-complete", MinSize: 2, // odd sizes round down to whole pairs
		Make: func(size int, seed uint64) core.Problem { return apps.NewGraphPartition(size&^1, 0.4, 0.04, seed) }},
	"cameras": {Key: "cameras", Class: "multimodal", MinSize: 1,
		Make: func(size int, seed uint64) core.Problem { return apps.NewCameraPlacement(4, size, seed) }},
}

// Lookup returns the Spec registered under key.
func Lookup(key string) (Spec, error) {
	s, ok := registry[key]
	if !ok {
		return Spec{}, fmt.Errorf("problems: unknown problem %q (see problems.Keys())", key)
	}
	return s, nil
}

// Keys returns the sorted list of registered problem names.
func Keys() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
