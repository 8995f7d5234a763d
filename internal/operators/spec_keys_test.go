package operators

import (
	"math"
	"reflect"
	"testing"
)

// TestSpecVocabularyComplete pins the two-way completeness invariant
// between the operator registry (RegisteredOperators, the trace-coverage
// ground truth) and the spec vocabulary (SpecEntries, what config files
// can name): every registered operator type has exactly one key, and
// every key builds a registered operator type. A new operator cannot be
// merged constructible-but-unspeccable. The one alias key, kpointword,
// builds KPoint, which kpoint also names.
func TestSpecVocabularyComplete(t *testing.T) {
	aliases := map[string]bool{"kpointword": true}
	registered := map[string]bool{}
	for _, op := range RegisteredOperators() {
		registered[OperatorTypeName(op)] = true
	}

	built := map[string]string{} // type name -> spec key
	for _, e := range SpecEntries() {
		op := e.Build(map[string]float64{})
		if op == nil {
			t.Fatalf("%s: Build returned nil", e.Key)
		}
		name := OperatorTypeName(op)
		if !registered[name] {
			t.Errorf("%s builds %s, which is not in RegisteredOperators", e.Key, name)
		}
		if aliases[e.Key] {
			continue
		}
		if prev, dup := built[name]; dup {
			t.Errorf("operator %s reachable from two keys: %s and %s", name, prev, e.Key)
		}
		built[name] = e.Key
	}
	for name := range registered {
		if _, ok := built[name]; !ok {
			t.Errorf("registered operator %s has no spec key (constructible but unspeccable)", name)
		}
	}
}

// TestSpecBuildAppliesParams checks parameters reach the struct fields
// and that an empty map yields the canonical zero value.
func TestSpecBuildAppliesParams(t *testing.T) {
	cases := []struct {
		key    string
		params map[string]float64
		want   any
	}{
		{"tournament", map[string]float64{"k": 3}, Tournament{K: 3}},
		{"tournament", nil, Tournament{}},
		{"rank", map[string]float64{"sp": 1.8}, LinearRank{SP: 1.8}},
		{"truncation", map[string]float64{"frac": 0.25}, Truncation{Frac: 0.25}},
		{"kpoint", map[string]float64{"k": 4}, KPoint{K: 4}},
		{"kpointword", map[string]float64{"k": 2}, KPoint{K: 2}},
		{"uniform", map[string]float64{"p": 0.3}, Uniform{P: 0.3}},
		{"blx", map[string]float64{"alpha": 0.7}, BLX{Alpha: 0.7}},
		{"sbx", map[string]float64{"eta": 10}, SBX{Eta: 10}},
		{"bitflip", map[string]float64{"p": 0.01}, BitFlip{P: 0.01}},
		{"gaussian", map[string]float64{"p": 0.1, "sigma": 0.2}, Gaussian{P: 0.1, Sigma: 0.2}},
		{"polynomial", map[string]float64{"eta": 25}, Polynomial{Eta: 25}},
		{"reset", map[string]float64{"p": 0.05}, UniformReset{P: 0.05}},
		{"blockflip", map[string]float64{"k": 5}, BlockFlip{K: 5}},
	}
	for _, c := range cases {
		e, ok := LookupSpec(c.key)
		if !ok {
			t.Fatalf("key %s missing", c.key)
		}
		p := c.params
		if p == nil {
			p = map[string]float64{}
		}
		got := e.Build(p)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s with %v = %#v, want %#v", c.key, c.params, got, c.want)
		}
	}
}

// TestSpecKeysAndAccepts covers the query helpers.
func TestSpecKeysAndAccepts(t *testing.T) {
	if _, ok := LookupSpec("nope"); ok {
		t.Fatal("LookupSpec accepted an unknown key")
	}
	sel := SpecKeys(KindSelector)
	if len(sel) != 6 {
		t.Fatalf("got %d selector keys: %v", len(sel), sel)
	}
	all := SpecKeys("")
	if len(all) != len(SpecEntries()) {
		t.Fatalf("SpecKeys(\"\") returned %d keys, registry has %d", len(all), len(SpecEntries()))
	}
	e, _ := LookupSpec("tournament")
	if k, ok := e.Param("k"); !ok || k.Min != 1 || k.Max != maxDraws {
		t.Fatalf("tournament k = %+v, %v", k, ok)
	}
	if _, ok := e.Param("p"); ok {
		t.Fatal("tournament documents no p")
	}
	// Every range is a usable closed interval: the spec layer rejects
	// whatever lies outside it, NaN and the infinities included.
	for _, e := range SpecEntries() {
		for _, p := range e.Params {
			if !(p.Min <= p.Max) || p.Min < 0 || math.IsInf(p.Max, 0) {
				t.Errorf("%s.%s has range [%v, %v]", e.Key, p.Name, p.Min, p.Max)
			}
		}
	}
}
