package main

import (
	"math"
	"sort"
)

// summary is the order-statistics digest every metric is reported with.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the "inclusive" method: q=0 is the minimum,
// q=1 the maximum).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0 // no samples: a failed run still has to serialise
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize digests samples; it does not modify the argument.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// spread is the self-noise figure printed beside each bound: the
// interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median is the 0.5-quantile of samples.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// sum adds samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// percentile returns the q-quantile of samples.
func percentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, q)
}
