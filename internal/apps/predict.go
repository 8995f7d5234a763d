package apps

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// StockPrediction is the Kwon & Moon (2003) neuro-genetic workload: a GA
// optimises the weights of a small MLP that predicts the next value of a
// price-like time series from a window of recent returns. The synthetic
// series mixes trend, seasonality and autoregressive noise so that a
// linear predictor is beatable and a random one is bad.
type StockPrediction struct {
	series  []float64
	window  int
	hidden  int
	nTrain  int
	returns []float64
}

// NewStockPrediction generates a synthetic daily series of length days
// and sets up an MLP with the given input window and hidden units.
func NewStockPrediction(days, window, hidden int, seed uint64) *StockPrediction {
	r := rng.New(seed)
	sp := &StockPrediction{window: window, hidden: hidden}
	price := 100.0
	phase := r.Float64() * 2 * math.Pi
	ar := 0.0
	for d := 0; d < days; d++ {
		season := 0.004 * math.Sin(2*math.Pi*float64(d)/21+phase)
		ar = 0.6*ar + 0.01*r.NormFloat64()
		ret := 0.0004 + season + ar
		price *= 1 + ret
		sp.series = append(sp.series, price)
	}
	for d := 1; d < len(sp.series); d++ {
		sp.returns = append(sp.returns, sp.series[d]/sp.series[d-1]-1)
	}
	sp.nTrain = len(sp.returns) * 3 / 4
	return sp
}

// WeightCount returns the MLP weight vector length:
// window→hidden dense + hidden biases + hidden→1 + output bias.
func (sp *StockPrediction) WeightCount() int {
	return sp.window*sp.hidden + sp.hidden + sp.hidden + 1
}

// Name implements core.Problem.
func (sp *StockPrediction) Name() string {
	return fmt.Sprintf("stock(w%d,h%d)", sp.window, sp.hidden)
}

// Direction implements core.Problem.
func (*StockPrediction) Direction() core.Direction { return core.Minimize }

// NewGenome implements core.Problem.
func (sp *StockPrediction) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomRealVector(sp.WeightCount(), -2, 2, r)
}

// forward computes the MLP's prediction from the window ending before t.
func (sp *StockPrediction) forward(w []float64, t int) float64 {
	k := 0
	out := 0.0
	hiddenW := w[:sp.window*sp.hidden]
	hiddenB := w[sp.window*sp.hidden : sp.window*sp.hidden+sp.hidden]
	outW := w[sp.window*sp.hidden+sp.hidden : sp.window*sp.hidden+2*sp.hidden]
	outB := w[len(w)-1]
	for h := 0; h < sp.hidden; h++ {
		a := hiddenB[h]
		for i := 0; i < sp.window; i++ {
			a += hiddenW[k] * sp.returns[t-sp.window+i] * 100 // scale returns
			k++
		}
		out += outW[h] * math.Tanh(a)
	}
	return (out + outB) / 100
}

// Evaluate implements core.Problem: mean squared one-step-ahead
// prediction error on the training split, in return units ×1e4 (so
// values are readable).
func (sp *StockPrediction) Evaluate(g core.Genome) float64 {
	w := g.(*genome.RealVector).Genes
	mse := 0.0
	n := 0
	for t := sp.window; t < sp.nTrain; t++ {
		d := sp.forward(w, t) - sp.returns[t]
		mse += d * d
		n++
	}
	return mse / float64(n) * 1e4
}

// SpectralEstimation is the Solano (2000) workload: fit the parameters of
// an AR(2) resonator to a synthetic Doppler-like signal by minimising the
// one-step prediction error. Genes: (a1, a2) AR coefficients.
type SpectralEstimation struct {
	signal []float64
	truth  [2]float64
}

// NewSpectralEstimation synthesises n samples of an AR(2) process with a
// random stable resonance drawn from seed.
func NewSpectralEstimation(n int, seed uint64) *SpectralEstimation {
	r := rng.New(seed)
	// Stable resonator: poles at radius ρ∈(0.8,0.95), angle ω∈(0.2π,0.8π).
	rho := r.Range(0.8, 0.95)
	omega := r.Range(0.2*math.Pi, 0.8*math.Pi)
	a1 := 2 * rho * math.Cos(omega)
	a2 := -rho * rho
	se := &SpectralEstimation{truth: [2]float64{a1, a2}}
	y1, y2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		y := a1*y1 + a2*y2 + r.NormFloat64()
		se.signal = append(se.signal, y)
		y2, y1 = y1, y
	}
	return se
}

// Name implements core.Problem.
func (se *SpectralEstimation) Name() string { return "doppler-ar2" }

// Direction implements core.Problem.
func (*SpectralEstimation) Direction() core.Direction { return core.Minimize }

// NewGenome implements core.Problem.
func (se *SpectralEstimation) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomRealVector(2, -2, 2, r)
}

// Evaluate implements core.Problem: mean squared one-step prediction
// error of the candidate AR(2) model.
func (se *SpectralEstimation) Evaluate(g core.Genome) float64 {
	w := g.(*genome.RealVector).Genes
	mse := 0.0
	for i := 2; i < len(se.signal); i++ {
		pred := w[0]*se.signal[i-1] + w[1]*se.signal[i-2]
		d := se.signal[i] - pred
		mse += d * d
	}
	return mse / float64(len(se.signal)-2)
}
