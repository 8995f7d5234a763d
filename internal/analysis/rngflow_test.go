package analysis

import "testing"

func TestRngFlowBad(t *testing.T) { checkRule(t, RngFlow(), "rngflow_bad.go") }
func TestRngFlowOk(t *testing.T)  { checkRule(t, RngFlow(), "rngflow_ok.go") }

// TestSharedRNG holds rngflow to the fixtures of the retired local
// sharedrng rule (the files keep their names): a stream captured by a
// go-closure and also used outside it is reported at the spawn site,
// and the move-in and pass-as-argument ownership transfers stay clean.
func TestSharedRNG(t *testing.T) {
	tests := []struct {
		name    string
		fixture string
	}{
		{"flags streams shared across goroutines", "sharedrng_bad.go"},
		{"silent on moved-in and argument streams", "sharedrng_ok.go"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkRule(t, RngFlow(), tc.fixture)
		})
	}
}
