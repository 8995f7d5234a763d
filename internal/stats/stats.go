// Package stats provides the statistical helpers used by the experiment
// harness: summary statistics with confidence intervals, hit-rate
// (efficacy) tracking, logistic growth-curve fitting for takeover curves,
// and histogram utilities.
//
// "Efficacy" follows the survey's footnote 2: "a measure that calculates
// the number of hits in finding a solution of a problem."
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics; it returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (normal approximation; adequate for the ≥20-run experiments here).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.3g std=%.3g [%.4g, %.4g]",
		s.N, s.Mean, s.CI95(), s.Std, s.Min, s.Max)
}

// HitRate is an efficacy accumulator: the fraction of runs that found the
// optimum, with the effort statistics of the successful runs.
type HitRate struct {
	runs    int
	hits    int
	efforts []float64 // evaluations-to-solution of successful runs
}

// Record adds one run's outcome.
func (h *HitRate) Record(solved bool, evaluations int64) {
	h.runs++
	if solved {
		h.hits++
		h.efforts = append(h.efforts, float64(evaluations))
	}
}

// Runs returns the number of recorded runs.
func (h *HitRate) Runs() int { return h.runs }

// Hits returns the number of successful runs.
func (h *HitRate) Hits() int { return h.hits }

// Effort returns the summary of evaluations-to-solution over successful
// runs (the standard "expected effort on success" report).
func (h *HitRate) Effort() Summary { return Summarize(h.efforts) }

// String implements fmt.Stringer.
func (h *HitRate) String() string {
	if h.hits == 0 {
		return fmt.Sprintf("%d/%d hits", h.hits, h.runs)
	}
	return fmt.Sprintf("%d/%d hits, effort %s", h.hits, h.runs, h.Effort())
}

// LogisticFit fits p(t) = 1 / (1 + a·e^(−b·t)) to a takeover curve by
// linear regression on the logit transform, returning (a, b). b is the
// growth rate — Giacobini's selection-intensity proxy: larger b = higher
// selection pressure.
func LogisticFit(curve []float64) (a, b float64) {
	// logit(p) = ln(p/(1-p)) = −ln a + b·t : linear in t.
	var xs, ys []float64
	for t, p := range curve {
		if p <= 0 || p >= 1 {
			continue // logit undefined at the extremes
		}
		xs = append(xs, float64(t))
		ys = append(ys, math.Log(p/(1-p)))
	}
	if len(xs) < 2 {
		return 0, 0
	}
	slope, intercept := LinearRegression(xs, ys)
	return math.Exp(-intercept), slope
}

// LinearRegression returns the least-squares slope and intercept of y on x.
// It panics if the slices differ in length.
func LinearRegression(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) {
		panic("stats: LinearRegression length mismatch")
	}
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return
}

// Sparkline renders a sequence as a compact unicode bar chart, used by the
// experiment harness to print curve shapes in tables.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	out := make([]rune, len(xs))
	for i, x := range xs {
		k := 0
		if max > min {
			k = int((x - min) / (max - min) * float64(len(bars)-1))
		}
		out[i] = bars[k]
	}
	return string(out)
}

// Downsample reduces xs to at most n points by uniform striding (keeping
// the final point), for sparkline rendering of long traces.
func Downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return xs
	}
	out := make([]float64, 0, n)
	step := float64(len(xs)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, xs[int(float64(i)*step+0.5)])
	}
	return out
}
