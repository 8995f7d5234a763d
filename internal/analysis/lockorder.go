package analysis

// lockorder: deadlock-free mutex discipline.
//
// Two families of findings, both anchored at the acquisition site:
//
//  1. Lock-order cycles. Every function's lexical lock walk yields
//     same-body edges (B acquired while A held); on top of that, for
//     every call made while holding locks, the callee's propagated
//     Acquires set (with call-site argument substitution, so a helper
//     locking its *sync.Mutex parameter binds to the caller's concrete
//     lock) contributes interprocedural edges. A cycle in the resulting
//     global acquisition-order graph — including a self-loop, since Go
//     mutexes are not reentrant — is a potential deadlock: two
//     goroutines walking the cycle from different entry points can each
//     hold the lock the other wants.
//
//  2. Unlock-path discipline. Within one body, an acquisition with no
//     matching release (and no deferred release) never unlocks; a
//     return or panic lexically between an acquisition and its first
//     matching release can leave the critical section locked on an
//     early exit.
//
// A lock's identity is ChanFact's: a named variable or a struct field,
// so all instances of a type share a field's lock in the order graph —
// exactly the granularity a per-instance mutex protects. The lexical
// walk under-approximates branches (linter optimism: no invented held
// locks), and unresolved callees contribute nothing.

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds the lockorder analyzer.
func LockOrder() *Analyzer {
	// The acquisition-order graph is global; compute once per Facts and
	// let whichever pass owns a position emit it, so findings land in
	// helper packages too.
	var cachedFacts *Facts
	var pending []chanDiag
	return &Analyzer{
		Name: "lockorder",
		Doc: "builds the global mutex acquisition-order graph from per-function " +
			"lock walks plus interprocedural held-set propagation, reporting " +
			"order cycles (potential deadlocks), re-acquisition self-loops, and " +
			"Lock-without-Unlock paths (early returns, panics) at the acquisition site",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			if pass.Facts != cachedFacts {
				cachedFacts = pass.Facts
				pending = computeLockOrder(pass.Facts)
			}
			for _, d := range pending {
				for _, f := range pass.Files {
					if f.FileStart <= d.pos && d.pos <= f.FileEnd {
						pass.Reportf(d.pos, "lockorder", "%s", d.msg)
						break
					}
				}
			}
		},
	}
}

// computeLockOrder produces the module-wide lockorder findings.
func computeLockOrder(facts *Facts) []chanDiag {
	var diags []chanDiag

	// Unlock-path discipline is purely body-local.
	for _, n := range facts.Graph.Nodes {
		if d := facts.Direct(n); d != nil {
			diags = append(diags, lockPathDiags(d.lockEvents)...)
		}
	}

	// Acquisition-order graph over lock identities.
	ids := map[types.Object]int{}
	var locks []types.Object
	idOf := func(o types.Object) int {
		if i, ok := ids[o]; ok {
			return i
		}
		ids[o] = len(locks)
		locks = append(locks, o)
		return len(locks) - 1
	}
	type orderSite struct {
		pos      token.Pos
		from, to types.Object
	}
	edgeSites := map[chanEdgeKey][]orderSite{}
	var keys []chanEdgeKey
	addEdge := func(from, to types.Object, pos token.Pos) {
		k := chanEdgeKey{from: idOf(from), to: idOf(to)}
		if _, ok := edgeSites[k]; !ok {
			keys = append(keys, k)
		}
		edgeSites[k] = append(edgeSites[k], orderSite{pos: pos, from: from, to: to})
	}
	for _, n := range facts.Graph.Nodes {
		d := facts.Direct(n)
		if d == nil {
			continue
		}
		for _, le := range d.lockEdges {
			addEdge(le.from, le.to, le.pos)
		}
		if d.heldAtCall == nil {
			continue
		}
		info := infoOf(n)
		for _, e := range n.Out {
			if e.Kind == EdgeSpawn || e.Site == nil {
				continue
			}
			held := d.heldAtCall[e.Site]
			if len(held) == 0 {
				continue
			}
			cs := facts.Summary(e.Callee)
			if cs == nil {
				continue
			}
			for _, acq := range cs.Acquires {
				obj := acq.Obj
				if acq.Param >= 0 {
					arg := calleeArg(e, cs, acq.Param)
					if arg == nil {
						continue
					}
					obj = refIdentOf(info, arg)
				}
				if obj == nil {
					continue
				}
				for _, h := range held {
					addEdge(h, obj, acq.Pos)
				}
			}
		}
	}

	comp := chanSCC(len(locks), keys)
	sizes := make([]int, len(locks))
	for _, c := range comp {
		sizes[c]++
	}
	seen := map[token.Pos]bool{}
	for _, k := range keys {
		if comp[k.from] != comp[k.to] {
			continue
		}
		if k.from != k.to && sizes[comp[k.from]] < 2 {
			continue
		}
		for _, st := range edgeSites[k] {
			if seen[st.pos] {
				continue
			}
			seen[st.pos] = true
			if k.from == k.to {
				diags = append(diags, chanDiag{pos: st.pos, msg: fmt.Sprintf(
					"lock %q is acquired while a path already holds it "+
						"(Go mutexes are not reentrant: this self-deadlocks)",
					st.to.Name())})
				continue
			}
			diags = append(diags, chanDiag{pos: st.pos, msg: fmt.Sprintf(
				"acquiring %q while holding %q closes a lock-order cycle "+
					"(potential deadlock); acquire locks in one global order",
				st.to.Name(), st.from.Name())})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags
}

// lockPathDiags checks one body's lock trace for acquisitions that can
// escape their critical section locked.
func lockPathDiags(events []lockEvent) []chanDiag {
	var out []chanDiag
	for i, ev := range events {
		if ev.kind != evAcquire {
			continue
		}
		deferred := false
		for _, e2 := range events {
			if e2.kind == evDeferRelease && e2.obj == ev.obj && e2.read == ev.read {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		verb := "Lock"
		if ev.read {
			verb = "RLock"
		}
		relPos := token.NoPos
		for _, e2 := range events[i+1:] {
			if e2.kind == evRelease && e2.obj == ev.obj && e2.read == ev.read {
				relPos = e2.pos
				break
			}
		}
		if relPos == token.NoPos {
			out = append(out, chanDiag{pos: ev.pos, msg: fmt.Sprintf(
				"%s of %q is never released in this function; unlock it or defer the unlock",
				verb, ev.obj.Name())})
			continue
		}
		for _, e2 := range events[i+1:] {
			if e2.pos >= relPos {
				break
			}
			if e2.kind == evReturn || e2.kind == evPanic {
				what := "a return"
				if e2.kind == evPanic {
					what = "a panic"
				}
				out = append(out, chanDiag{pos: ev.pos, msg: fmt.Sprintf(
					"%s between this %s of %q and its unlock leaves the lock held; defer the unlock",
					what, verb, ev.obj.Name())})
				break
			}
		}
	}
	return out
}

// chanDiag is one pending report of a module-wide rule (lockorder,
// boundedres), emitted by whichever pass owns the position so findings
// land in helper packages too.
type chanDiag struct {
	pos token.Pos
	msg string
}

// chanEdgeKey is one from→to edge of the acquisition-order graph.
type chanEdgeKey struct{ from, to int }

// chanSCC computes strongly connected components (Tarjan) over a graph
// of n nodes, returning each node's component id.
func chanSCC(n int, keys []chanEdgeKey) []int {
	adj := make([][]int, n)
	for _, k := range keys {
		adj[k.from] = append(adj[k.from], k.to)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	next := 1
	comps := 0
	var visit func(v int)
	visit = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = comps
				if w == v {
					break
				}
			}
			comps++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == 0 {
			visit(v)
		}
	}
	return comp
}
