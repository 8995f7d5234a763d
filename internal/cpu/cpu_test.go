package cpu

import "testing"

// TestFeaturesNest: each extension is reported only with those its
// bodies also use (AVX512DQ's KMOVB and AVX512BW's byte vectors sit
// beside AVX512F code, and an AVX-512 host runs the AVX2 body too); the
// log names this host's.
func TestFeaturesNest(t *testing.T) {
	t.Logf("%+v", X86)
	if X86.AVX512DQ && !X86.AVX512F || X86.AVX512BW && !X86.AVX512F || X86.AVX512F && !X86.AVX2 {
		t.Errorf("%+v: an extension without the one it builds on", X86)
	}
}
