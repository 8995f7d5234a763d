package apps

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// FeatureSelection is the Moser & Murty (2000) workload: select a feature
// subset that maximises classification accuracy with a parsimony bonus.
// The synthetic dataset has nInformative features that genuinely separate
// the classes plus noise features that do not; the known-good solution is
// the informative subset.
type FeatureSelection struct {
	nFeatures    int
	nInformative int
	train        [][]float64
	trainY       []int
	test         [][]float64
	testY        []int
	classes      int
	// Alpha is the parsimony weight: fitness = accuracy − Alpha·|subset|/n.
	Alpha float64
}

// NewFeatureSelection creates a synthetic classification problem with
// nFeatures total features of which nInformative carry class signal, and
// samples instances per class for train and test.
func NewFeatureSelection(nFeatures, nInformative, classes, samples int, seed uint64) *FeatureSelection {
	if nInformative > nFeatures {
		panic("apps: nInformative exceeds nFeatures")
	}
	r := rng.New(seed)
	fs := &FeatureSelection{
		nFeatures:    nFeatures,
		nInformative: nInformative,
		classes:      classes,
		Alpha:        0.1,
	}
	// Class centroids differ only on informative features.
	centroids := make([][]float64, classes)
	for c := range centroids {
		centroids[c] = make([]float64, nFeatures)
		for f := 0; f < nInformative; f++ {
			centroids[c][f] = 3 * r.NormFloat64()
		}
	}
	gen := func(n int) ([][]float64, []int) {
		var X [][]float64
		var Y []int
		for c := 0; c < classes; c++ {
			for i := 0; i < n; i++ {
				x := make([]float64, nFeatures)
				for f := 0; f < nFeatures; f++ {
					x[f] = centroids[c][f] + r.NormFloat64()
				}
				X = append(X, x)
				Y = append(Y, c)
			}
		}
		return X, Y
	}
	fs.train, fs.trainY = gen(samples)
	fs.test, fs.testY = gen(samples)
	return fs
}

// Name implements core.Problem.
func (fs *FeatureSelection) Name() string {
	return fmt.Sprintf("featsel(%d/%d)", fs.nInformative, fs.nFeatures)
}

// Direction implements core.Problem.
func (*FeatureSelection) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem.
func (fs *FeatureSelection) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomBitString(fs.nFeatures, r)
}

// Evaluate implements core.Problem: nearest-centroid accuracy on the test
// split using only the selected features, minus the parsimony penalty.
func (fs *FeatureSelection) Evaluate(g core.Genome) float64 {
	mask := g.(*genome.BitString)
	selected := mask.OnesCount()
	if selected == 0 {
		return 0
	}
	return fs.Accuracy(mask) - fs.Alpha*float64(selected)/float64(fs.nFeatures)
}

// Accuracy returns the nearest-centroid test accuracy of the masked
// feature set (no parsimony term).
func (fs *FeatureSelection) Accuracy(mask *genome.BitString) float64 {
	// Class centroids from the training split, masked.
	cent := make([][]float64, fs.classes)
	count := make([]int, fs.classes)
	for c := range cent {
		cent[c] = make([]float64, fs.nFeatures)
	}
	for i, x := range fs.train {
		c := fs.trainY[i]
		count[c]++
		for f, v := range x {
			cent[c][f] += v
		}
	}
	for c := range cent {
		if count[c] > 0 {
			for f := range cent[c] {
				cent[c][f] /= float64(count[c])
			}
		}
	}
	correct := 0
	for i, x := range fs.test {
		best, bestD := -1, math.Inf(1)
		for c := range cent {
			d := 0.0
			for f := range x {
				if !mask.Get(f) {
					continue
				}
				diff := x[f] - cent[c][f]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == fs.testY[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(fs.test))
}
