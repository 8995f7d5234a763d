package main

import (
	"reflect"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("single-sample quartiles = %v %v %v", q1, med, q3)
	}
}

// TestJudge pins the comparison rules on hand-made pairs: nine wins in
// ten with medians further apart than the base's IQR is a gain, a median
// worse than the bound a regression, a base noisier than the bound
// or a base whose median is zero unresolved, anything else within bound.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	oneLoss := shift(50)
	oneLoss[0] = 90 // nine wins in ten still carries a gain
	twoLosses := shift(50)
	twoLosses[0], twoLosses[1] = 90, 90
	zero := make([]float64, len(base))
	noisy := []float64{60, 140, 70, 130, 100, 100, 65, 135, 100, 100}

	for _, c := range []struct {
		name         string
		base, change []float64
		higher       bool
		want         string
		cw, bw       int
	}{
		{"higher is better, faster", base, shift(50), true, "gain", 10, 0},
		{"nine of ten", base, oneLoss, true, "gain", 9, 1},
		{"eight of ten", base, twoLosses, true, "within bound", 8, 2},
		{"inside the base's IQR", base, shift(0.5), true, "within bound", 10, 0},
		{"higher is better, slower", base, shift(-30), true, "REGRESSION", 0, 10},
		{"lower is better, larger", base, shift(30), false, "REGRESSION", 0, 10},
		{"lower is better, smaller", base, shift(-30), false, "gain", 10, 0},
		{"slower within the bound", base, shift(-10), true, "within bound", 0, 10},
		{"ties count for neither", base, base, true, "within bound", 0, 0},
		{"base noisier than the bound", noisy, noisy, true, "unresolved", 0, 0},
		{"base median zero", zero, shift(0), false, "unresolved", 0, 10},
		{"both sides zero", zero, zero, true, "unresolved", 0, 0},
	} {
		j := judge(c.base, c.change, c.higher, 0.25)
		if j.verdict != c.want || j.changeWins != c.cw || j.baseWins != c.bw {
			t.Errorf("%s: verdict %q wins %d/%d, want %q %d/%d",
				c.name, j.verdict, j.changeWins, j.baseWins, c.want, c.cw, c.bw)
		}
	}
}

// TestParseOutput: the driver line is pgaperf's last stdout line, and
// every "FAILED:" line of the report before it is kept; an output that
// ends without a driver line is an error, and its failures still come
// back.
func TestParseOutput(t *testing.T) {
	failing := "seed 5  go1.24.0  nproc 2\n\n" +
		"== wire-ring2  ops_attempted 80  ops_failed 1\n" +
		"   FAILED: wire-ring2: 146 of 7473 sent batches are neither delivered nor counted dropped\n" +
		"   end-to-end         unit           median\n" +
		"total 21.3 s\n" +
		`{"workload":"wire-ring2","correct":false,"attempted":80,"failed":1,"metrics":{"evals_per_s":{"value":412000}}}` + "\n"
	for _, c := range []struct {
		name     string
		out      string
		failures []string
		wantErr  bool
	}{
		{"failing run", failing,
			[]string{"wire-ring2: 146 of 7473 sent batches are neither delivered nor counted dropped"}, false},
		{"no driver line", "== wire-ring2  ops_attempted 1  ops_failed 1\n   FAILED: wire-ring2: setup: bind refused\ntotal 0.1 s\n",
			[]string{"wire-ring2: setup: bind refused"}, true},
	} {
		line, failures, err := parseOutput([]byte(c.out))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if !reflect.DeepEqual(failures, c.failures) {
			t.Errorf("%s: failures = %q, want %q", c.name, failures, c.failures)
		}
		if c.wantErr {
			continue
		}
		if line.Correct || line.Attempted != 80 || line.Failed != 1 || line.Metrics["evals_per_s"].Value != 412000 {
			t.Errorf("%s: driver line = %+v", c.name, line)
		}
	}
}
