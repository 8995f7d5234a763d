package operators

import (
	"fmt"
	"strings"
)

// RegisteredOperators returns one canonical zero value of every concrete
// library operator. internal/spec derives type names from these to
// check that the sweeps with recorded results under examples/sweeps/
// run every operator; experiments and examples may also range over it.
func RegisteredOperators() []any {
	return []any{
		// Selection.
		Tournament{}, Roulette{}, LinearRank{}, Truncation{}, Random{}, Best{},
		// Crossover (bit/real/permutation, then word-granular).
		OnePoint{}, TwoPoint{}, KPoint{}, Uniform{}, Arithmetic{}, BLX{},
		SBX{}, OX{}, PMX{}, CX{}, ERX{}, UniformWord{},
		// Mutation.
		BitFlip{}, Gaussian{}, Polynomial{}, UniformReset{}, Swap{},
		Inversion{}, Scramble{}, Insertion{}, BlockFlip{},
	}
}

// OperatorTypeName renders an operator's bare type name ("KPoint" for
// operators.KPoint or *operators.KPoint) — the identity that check
// compares by.
func OperatorTypeName(op any) string {
	name := strings.TrimPrefix(fmt.Sprintf("%T", op), "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
