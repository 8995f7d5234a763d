package apps

// Ground-truth yardsticks of the application problems. The tests score a
// solved instance against them; no run reads them.

import (
	"math"

	"pga/internal/core"
	"pga/internal/genome"
)

// Cities returns the number of cities.
func (t *TSP) Cities() int { return len(t.xs) }

// LowerBound returns the trivial makespan lower bound max(total/m, max
// task).
func (s *Scheduling) LowerBound() float64 {
	total, maxd := 0.0, 0.0
	for _, d := range s.durations {
		total += d
		maxd = max(maxd, d)
	}
	return max(total/float64(s.machines), maxd)
}

// InformativeMask returns the ground-truth informative-feature mask.
func (fs *FeatureSelection) InformativeMask() *genome.BitString {
	b := genome.NewBitString(fs.nFeatures)
	for f := 0; f < fs.nInformative; f++ {
		b.Set(f, true)
	}
	return b
}

// Edges returns the edge count.
func (g *GraphPartition) Edges() int { return len(g.edges) }

// PlantedCut returns the cut size of the hidden planted partition (a
// quality yardstick; the GA can legitimately beat it).
func (g *GraphPartition) PlantedCut() int {
	return g.CutSize(g.planted)
}

// Coverage returns the fraction of targets seen by ≥2 cameras.
func (cp *CameraPlacement) Coverage(gen core.Genome) float64 {
	v := gen.(*genome.RealVector)
	covered := 0
	for t := range cp.targets {
		seen := 0
		for c := 0; c < cp.cameras; c++ {
			if cp.sees(cp.cameraPos(v, c), t) {
				seen++
				if seen >= 2 {
					covered++
					break
				}
			}
		}
	}
	return float64(covered) / float64(len(cp.targets))
}

// TestMSE returns the held-out mean squared error ×1e4.
func (sp *StockPrediction) TestMSE(g core.Genome) float64 {
	w := g.(*genome.RealVector).Genes
	mse := 0.0
	n := 0
	for t := sp.nTrain; t < len(sp.returns); t++ {
		d := sp.forward(w, t) - sp.returns[t]
		mse += d * d
		n++
	}
	return mse / float64(n) * 1e4
}

// BuyAndHoldMSE returns the MSE ×1e4 of always predicting the mean
// training return — the naive baseline Kwon & Moon compared against.
func (sp *StockPrediction) BuyAndHoldMSE() float64 {
	mean := 0.0
	for t := 0; t < sp.nTrain; t++ {
		mean += sp.returns[t]
	}
	mean /= float64(sp.nTrain)
	mse := 0.0
	n := 0
	for t := sp.nTrain; t < len(sp.returns); t++ {
		d := mean - sp.returns[t]
		mse += d * d
		n++
	}
	return mse / float64(n) * 1e4
}

// Truth returns the generating AR coefficients.
func (se *SpectralEstimation) Truth() [2]float64 { return se.truth }

// CoefficientError returns the Euclidean distance to the true
// coefficients.
func (se *SpectralEstimation) CoefficientError(g core.Genome) float64 {
	w := g.(*genome.RealVector).Genes
	d1 := w[0] - se.truth[0]
	d2 := w[1] - se.truth[1]
	return math.Sqrt(d1*d1 + d2*d2)
}

// Truth returns the ground-truth transform.
func (ir *ImageRegistration) Truth() [3]float64 { return ir.truth }

// TransformError returns the parameter-space distance between the
// candidate and the ground truth (shift in pixels + angle scaled).
func (ir *ImageRegistration) TransformError(g core.Genome) float64 {
	v := g.(*genome.RealVector)
	dx := v.Genes[0] - ir.truth[0]
	dy := v.Genes[1] - ir.truth[1]
	dt := (v.Genes[2] - ir.truth[2]) * float64(ir.size) / 4
	return math.Sqrt(dx*dx + dy*dy + dt*dt)
}
