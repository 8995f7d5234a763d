package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8})
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 || s.Median != 5 {
		t.Fatalf("summary wrong: %+v", s)
	}
	want := math.Sqrt(20.0 / 3.0) // sample std
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary wrong")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.CI95() != 0 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := Summarize([]float64{1, 2, 3, 4})
	var big []float64
	for i := 0; i < 16; i++ {
		big = append(big, []float64{1, 2, 3, 4}[i%4])
	}
	if Summarize(big).CI95() >= small.CI95() {
		t.Fatal("CI did not shrink with sample size")
	}
}

func TestHitRate(t *testing.T) {
	var h HitRate
	h.Record(true, 100)
	h.Record(false, 500)
	h.Record(true, 200)
	if h.Runs() != 3 || h.Hits() != 2 {
		t.Fatal("counts wrong")
	}
	if eff := h.Effort(); eff.Mean != 150 {
		t.Fatalf("effort mean %v", eff.Mean)
	}
	if h.String() == "" {
		t.Fatal("empty string")
	}
}

func TestHitRateEmpty(t *testing.T) {
	var h HitRate
	if !strings.Contains(h.String(), "0/0") {
		t.Fatalf("string %q", h.String())
	}
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearRegression(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit (%v, %v)", slope, intercept)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	slope, intercept := LinearRegression(nil, nil)
	if slope != 0 || intercept != 0 {
		t.Fatal("empty regression not zero")
	}
	// All same x: slope 0, intercept = mean.
	slope, intercept = LinearRegression([]float64{2, 2}, []float64{1, 3})
	if slope != 0 || intercept != 2 {
		t.Fatalf("degenerate-x fit (%v, %v)", slope, intercept)
	}
}

func TestLinearRegressionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	LinearRegression([]float64{1}, []float64{1, 2})
}

func TestLogisticFitRecoversCurve(t *testing.T) {
	// Generate a clean logistic and recover its growth rate.
	trueA, trueB := 99.0, 0.8
	var curve []float64
	for tt := 0; tt < 30; tt++ {
		curve = append(curve, 1/(1+trueA*math.Exp(-trueB*float64(tt))))
	}
	a, b := LogisticFit(curve)
	if math.Abs(b-trueB) > 0.01 || math.Abs(a-trueA)/trueA > 0.05 {
		t.Fatalf("fit a=%v b=%v, want a=%v b=%v", a, b, trueA, trueB)
	}
}

func TestLogisticFitFasterCurveHigherB(t *testing.T) {
	mk := func(b float64) []float64 {
		var c []float64
		for tt := 0; tt < 40; tt++ {
			c = append(c, 1/(1+50*math.Exp(-b*float64(tt))))
		}
		return c
	}
	_, bSlow := LogisticFit(mk(0.3))
	_, bFast := LogisticFit(mk(0.9))
	if bFast <= bSlow {
		t.Fatal("faster takeover did not yield larger growth rate")
	}
}

func TestLogisticFitDegenerate(t *testing.T) {
	a, b := LogisticFit([]float64{0, 1}) // nothing strictly inside (0,1)
	if a != 0 || b != 0 {
		t.Fatal("degenerate fit not zero")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q", s)
	}
	r := []rune(s)
	if r[0] != '▁' || r[2] != '█' {
		t.Fatalf("sparkline ends wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline not empty")
	}
	// Constant series renders lowest bar everywhere.
	for _, c := range Sparkline([]float64{2, 2, 2}) {
		if c != '▁' {
			t.Fatal("constant sparkline not flat")
		}
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := Downsample(xs, 10)
	if len(d) != 10 {
		t.Fatalf("downsampled to %d", len(d))
	}
	if d[0] != 0 || d[9] != 99 {
		t.Fatalf("endpoints lost: %v", d)
	}
	// Short inputs pass through.
	if got := Downsample(xs[:5], 10); len(got) != 5 {
		t.Fatal("short input modified")
	}
}

func TestSummarizeMeanWithinBounds(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Median >= s.Min && s.Median <= s.Max
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
