package analysis

// purity: the operator/fitness contract, machine-checked.
//
// Every engine in the module assumes the pluggable pieces — Problem
// fitness functions, selection, crossover and mutation operators — are
// pure apart from their *documented* argument mutation: Mutate edits the
// genome it was handed, CrossInto fills the two child slots and its
// scratch, SelectScratch uses its scratch; nothing else. The assumption
// is what makes three things sound at once:
//
//   - determinism: a fitness function drawing from math/rand or the wall
//     clock silently breaks seeded replay (the survey's §2 contract);
//   - parallel evaluation: the master-slave farm and the parallel
//     reproduction engine call Evaluate concurrently on shared Problem
//     values, so hidden receiver/global mutation is a data race;
//   - engine pooling: the in-place operator layer reuses buffers across
//     births, so an operator mutating an undocumented argument corrupts
//     a neighbour's state.
//
// A local rule cannot check this: the side effect usually hides behind a
// helper call. The summary engine makes it a bitset comparison — a
// method matching a role's name and shape must have no effects beyond
// the role's allowance, no matter how deep the call chain that produces
// them. Role matching is by method name and parameter type names (the
// same name-based matching isRNGStream uses), so the contract follows
// the interfaces without needing fixtures to import the real packages.

import (
	"go/ast"
	"go/types"
	"strings"
)

// PurityRole describes one checked method shape and its effect allowance.
type PurityRole struct {
	// Method is the method name ("Evaluate", "Mutate", ...).
	Method string
	// Params are type-name patterns for the non-receiver parameters, in
	// order; "A|B" alternates, "*" matches anything. The method matches
	// only if the parameter count and every name agree.
	Params []string
	// Results is the required result count.
	Results int
	// Mutable lists unified parameter indices (0 = receiver) the role is
	// documented to mutate.
	Mutable []int
	// RNG lists unified indices of the stream the role may draw from (on
	// the calling goroutine only).
	RNG []int
}

// PurityConfig configures the purity analyzer.
type PurityConfig struct {
	// Roles are the checked contracts.
	Roles []PurityRole
	// Exempt lists package-qualified method names
	// ("pga/internal/core.Evaluate") excluded from role checking even when
	// their shape matches — for documented, deliberately stateful wrappers
	// whose synchronisation the purity summary cannot see. Matching is the
	// same pkgPath+"."+name rule the hiddenalloc hot list uses, so every
	// same-named method in the package is exempted together; keep such
	// packages small.
	Exempt []string
}

// purityRoles are the repository's operator contracts: Problem.Evaluate,
// Mutator.Mutate, Crossover.Cross, InPlaceCrossover.CrossInto,
// Selector.Select, ScratchSelector.SelectScratch and
// BatchProblem.EvaluateBatch.
var purityRoles = []PurityRole{
	{Method: "Evaluate", Params: []string{"Genome"}, Results: 1},
	{Method: "Mutate", Params: []string{"Genome", "Source|Rand"},
		Mutable: []int{1}, RNG: []int{2}},
	{Method: "Cross", Params: []string{"Genome", "Genome", "Source|Rand"},
		Results: 2, RNG: []int{3}},
	{Method: "CrossInto", Params: []string{"Genome", "Genome", "Genome", "Genome", "Source|Rand", "Scratch"},
		Mutable: []int{3, 4, 6}, RNG: []int{5}},
	{Method: "Select", Params: []string{"Population", "Direction", "Source|Rand"},
		Results: 1, RNG: []int{3}},
	{Method: "SelectScratch", Params: []string{"Population", "Direction", "Source|Rand", "Scratch"},
		Results: 1, Mutable: []int{4}, RNG: []int{3}},
	// Batched fitness: reads the genome slice, fills the output slice.
	// Slice parameters have no named element-type signature to match
	// on, so the shape is name + arity + the mutable output slot.
	{Method: "EvaluateBatch", Params: []string{"*", "*"},
		Mutable: []int{2}},
}

// purityExempt is the production exemption list.
var purityExempt = []string{
	// CachedProblem.Evaluate memoises fitness behind a mutex: the
	// receiver mutation is the documented point of the type, and the
	// lock restores the concurrent-Evaluate safety the rule protects.
	"pga/internal/core.Evaluate",
}

// DefaultPurityConfig returns the production roles and exemptions.
func DefaultPurityConfig() PurityConfig {
	return PurityConfig{Roles: purityRoles, Exempt: purityExempt}
}

// Purity builds the purity analyzer with the default configuration.
func Purity() *Analyzer { return PurityWith(DefaultPurityConfig()) }

// PurityWith builds the purity analyzer with cfg (test hook).
func PurityWith(cfg PurityConfig) *Analyzer {
	return &Analyzer{
		Name: "purity",
		Doc: "requires fitness functions and operators (Evaluate/Mutate/Cross/" +
			"CrossInto/Select/SelectScratch shapes) to be effect-free apart from " +
			"their documented argument mutation: no receiver or global writes, no " +
			"wall clock, no math/rand, no undocumented RNG draws — through any call " +
			"chain",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Recv == nil || fd.Body == nil {
						continue
					}
					if allowedFunc(cfg.Exempt, pass.PkgPath, fd.Name.Name) {
						continue
					}
					for i := range cfg.Roles {
						role := &cfg.Roles[i]
						if role.Method == fd.Name.Name && roleMatches(pass, fd, role) {
							checkPurity(pass, fd, role)
							break
						}
					}
				}
			}
		},
	}
}

// roleMatches reports whether fd's signature has the role's shape.
func roleMatches(pass *Pass, fd *ast.FuncDecl, role *PurityRole) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != len(role.Params) || sig.Results().Len() != role.Results {
		return false
	}
	for i, pattern := range role.Params {
		if !typeNameMatches(pattern, sig.Params().At(i).Type()) {
			return false
		}
	}
	return true
}

// typeNameMatches checks a "A|B"/"*" pattern against the (pointer-
// unwrapped) named type of t.
func typeNameMatches(pattern string, t types.Type) bool {
	if pattern == "*" {
		return true
	}
	name := namedTypeName(t)
	for _, alt := range strings.Split(pattern, "|") {
		if alt == name {
			return true
		}
	}
	return false
}

// namedTypeName unwraps pointers and returns the named type's name, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkPurity compares the method's propagated summary against the
// role's allowance.
func checkPurity(pass *Pass, fd *ast.FuncDecl, role *PurityRole) {
	node := pass.Facts.Graph.NodeOf(fd)
	if node == nil {
		return
	}
	s := pass.Facts.Summary(node)
	if s == nil {
		return
	}
	paramName := func(i int) string {
		if v := s.ParamVar(i); v != nil {
			if i == 0 {
				return "its receiver"
			}
			return "parameter " + v.Name()
		}
		if i == 0 {
			return "its receiver"
		}
		return "an argument"
	}
	if bad := s.MutatesParam &^ maskOf(role.Mutable); bad != 0 {
		for i := 0; i < maxTrackedParams && bad != 0; i++ {
			if bad&(1<<uint(i)) == 0 {
				continue
			}
			bad &^= 1 << uint(i)
			pass.Reportf(fd.Name.Pos(), "purity",
				"%s mutates %s (directly or via a callee); the %s contract only "+
					"permits mutating %s",
				fd.Name.Name, paramName(i), role.Method, allowanceText(role, s))
		}
	}
	if s.WritesGlobal {
		pass.Reportf(fd.Name.Pos(), "purity",
			"%s writes package-level state (directly or via a callee); operators and "+
				"fitness functions must be pure so parallel evaluation and seeded "+
				"replay stay sound", fd.Name.Name)
	}
	if s.ReadsClock {
		pass.Reportf(fd.Name.Pos(), "purity",
			"%s observes the wall clock (directly or via a callee); evolution paths "+
				"must be schedule-independent", fd.Name.Name)
	}
	if s.RawRand {
		pass.Reportf(fd.Name.Pos(), "purity",
			"%s reaches math/rand or crypto/rand (directly or via a callee); draw "+
				"from the designated *rng.Source argument instead", fd.Name.Name)
	}
	if bad := s.DrawsParam &^ maskOf(role.RNG); bad != 0 {
		for i := 0; i < maxTrackedParams && bad != 0; i++ {
			if bad&(1<<uint(i)) == 0 {
				continue
			}
			bad &^= 1 << uint(i)
			pass.Reportf(fd.Name.Pos(), "purity",
				"%s draws from %s, which the %s contract does not designate as its "+
					"RNG stream", fd.Name.Name, paramName(i), role.Method)
		}
	}
	if s.SpawnDrawsParam != 0 {
		pass.Reportf(fd.Name.Pos(), "purity",
			"%s hands an RNG stream to a spawned goroutine that draws from it; "+
				"operators run synchronously inside the generation step", fd.Name.Name)
	}
}

// maskOf builds a bitset from unified indices.
func maskOf(indices []int) uint64 {
	var m uint64
	for _, i := range indices {
		if i >= 0 && i < maxTrackedParams {
			m |= 1 << uint(i)
		}
	}
	return m
}

// allowanceText renders the role's documented-mutable set for messages.
func allowanceText(role *PurityRole, s *Summary) string {
	if len(role.Mutable) == 0 {
		return "nothing"
	}
	var names []string
	for _, i := range role.Mutable {
		if v := s.ParamVar(i); v != nil {
			names = append(names, v.Name())
		}
	}
	if len(names) == 0 {
		return "its documented arguments"
	}
	return strings.Join(names, ", ")
}
