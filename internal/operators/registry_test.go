package operators

import "testing"

// TestRegisteredOperatorsComplete guards the operator registry: every
// Selector/Crossover/Mutator type in this package (compile-time checked
// elsewhere via the interface assertion blocks) must appear exactly once,
// and names must be unique — internal/equiv keys its golden scenarios by
// these names.
func TestRegisteredOperatorsComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range RegisteredOperators() {
		name := OperatorTypeName(op)
		if name == "" {
			t.Errorf("operator %T renders an empty type name", op)
		}
		if seen[name] {
			t.Errorf("operator %s registered twice", name)
		}
		seen[name] = true
	}
	for _, want := range []string{"Tournament", "KPoint", "ERX", "UniformWord", "BlockFlip", "Truncation"} {
		if !seen[want] {
			t.Errorf("operator %s missing from RegisteredOperators", want)
		}
	}
}
