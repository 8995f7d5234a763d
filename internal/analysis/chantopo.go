package analysis

// chantopo: static deadlock detection over the channel topology.
//
// blockingsend polices the form of each send; chantopo polices the shape
// they compose into. The communication runtimes wire goroutines into a
// message topology (ring/star/grid migration, farm dispatch, gossip).
// Even when individual sends look harmless, a *cycle* of unconditionally
// blocking sends can deadlock the whole topology once buffers fill: the
// classic ring where every deme blocks sending to its successor while
// its own inbox is full.
//
// The model: a channel is identified by the variable or struct field
// that carries it (field-level abstraction — all instances of a type
// share the field's identity; elements of a channel slice share the
// collection's). Each goroutine body contributes edges recv→send: if it
// receives from A and may block sending to B (classified exactly like
// blockingsend — only a select with a default or escape case is
// non-blocking), then draining A requires progress on B. A strongly
// connected component of that graph — a cycle, or a self-loop — means
// the topology can reach a state where every participant waits on the
// next; each blocking send on the cycle is reported.
//
// Goroutine bodies come from the summary engine: every function of a
// scoped package (with helper-call chains already folded in by
// propagation, wherever the helpers live), plus every function spawned
// via `go` from scoped code, with channel arguments substituted at the
// spawn site. Summaries do not carry channel facts across spawn edges,
// so each goroutine's endpoint set is exactly its own.

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// chanDiag is one pending report (emitted by whichever pass owns the
// position, so findings land in helper packages too).
type chanDiag struct {
	pos token.Pos
	msg string
}

// ChanTopo builds the chantopo analyzer over commScope, the
// communication runtimes blockingsend polices.
func ChanTopo() *Analyzer {
	// The topology is global; compute once per Facts and filter reports
	// per pass.
	var cachedFacts *Facts
	var pending []chanDiag
	return &Analyzer{
		Name: "chantopo",
		Doc: "models the static channel graph of the communication runtimes " +
			"(channels as variables/struct fields, goroutines as graph edges " +
			"recv→blocking-send) and reports cycles of unconditionally blocking " +
			"sends as potential topology deadlocks",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			if pass.Facts != cachedFacts {
				cachedFacts = pass.Facts
				pending = computeChanTopo(pass.Facts)
			}
			for _, d := range pending {
				for _, f := range pass.Files {
					if f.FileStart <= d.pos && d.pos <= f.FileEnd {
						pass.Reportf(d.pos, "chantopo", "%s", d.msg)
						break
					}
				}
			}
		},
	}
}

// chanInstance is one modelled goroutine body with concrete endpoints.
type chanInstance struct {
	name  string
	sends []ChanFact
	recvs []ChanFact
}

// computeChanTopo builds the channel graph and returns the deadlock
// findings.
func computeChanTopo(facts *Facts) []chanDiag {
	inScope := func(pkg *Package) bool {
		return pkg != nil && pathMatchAny(commScope, pkg.Path)
	}

	var instances []chanInstance
	concrete := func(facts []ChanFact) []ChanFact {
		var out []ChanFact
		for _, cf := range facts {
			if cf.Param < 0 && cf.Obj != nil {
				out = append(out, cf)
			}
		}
		return out
	}
	for _, n := range facts.Graph.Nodes {
		if inScope(n.Pkg) {
			s := facts.Summary(n)
			instances = append(instances, chanInstance{
				name:  n.Name,
				sends: concrete(s.Sends),
				recvs: concrete(s.Recvs),
			})
		}
		// Spawned out-of-scope functions join the topology with channel
		// arguments bound at the go statement.
		for _, e := range n.Out {
			if e.Kind != EdgeSpawn || !inScope(n.Pkg) || inScope(e.Callee.Pkg) {
				continue
			}
			src := facts.Summary(e.Callee)
			inst := chanInstance{name: e.Callee.Name + " (spawned by " + n.Name + ")"}
			bind := func(in []ChanFact) []ChanFact {
				var out []ChanFact
				for _, cf := range in {
					if cf.Param < 0 {
						if cf.Obj != nil {
							out = append(out, cf)
						}
						continue
					}
					arg := calleeArg(e, src, cf.Param)
					if arg == nil {
						continue
					}
					if obj := chanIdentOf(n.Pkg.Info, arg); obj != nil {
						out = append(out, ChanFact{Param: -1, Obj: obj, Pos: cf.Pos})
					}
				}
				return out
			}
			inst.sends = bind(src.Sends)
			inst.recvs = bind(src.Recvs)
			instances = append(instances, inst)
		}
	}

	// Channel graph: ids in first-seen order for determinism.
	ids := map[types.Object]int{}
	var chans []types.Object
	idOf := func(obj types.Object) int {
		if id, ok := ids[obj]; ok {
			return id
		}
		id := len(chans)
		ids[obj] = id
		chans = append(chans, obj)
		return id
	}
	type sendSite struct {
		pos  token.Pos
		inst string
	}
	edges := map[chanEdgeKey][]sendSite{}
	var keys []chanEdgeKey
	for _, inst := range instances {
		for _, r := range inst.recvs {
			for _, s := range inst.sends {
				k := chanEdgeKey{from: idOf(r.Obj), to: idOf(s.Obj)}
				if edges[k] == nil {
					keys = append(keys, k)
				}
				dup := false
				for _, have := range edges[k] {
					if have.pos == s.Pos {
						dup = true
						break
					}
				}
				if !dup {
					edges[k] = append(edges[k], sendSite{pos: s.Pos, inst: inst.name})
				}
			}
		}
	}

	scc := chanSCC(len(chans), keys)
	// Collect findings: edges inside a nontrivial SCC, or self-loops.
	sizes := map[int]int{}
	for _, comp := range scc {
		sizes[comp]++
	}
	seenPos := map[token.Pos]bool{}
	var diags []chanDiag
	for _, k := range keys {
		if scc[k.from] != scc[k.to] {
			continue
		}
		if sizes[scc[k.from]] < 2 && k.from != k.to {
			continue
		}
		cycle := cycleText(chans, scc, scc[k.from])
		for _, site := range edges[k] {
			if seenPos[site.pos] {
				continue
			}
			seenPos[site.pos] = true
			diags = append(diags, chanDiag{
				pos: site.pos,
				msg: "blocking send on channel \"" + chans[k.to].Name() + "\" (in " + site.inst +
					", which consumes from \"" + chans[k.from].Name() + "\") closes the channel cycle " +
					cycle + ": when buffers fill, every goroutine on the cycle waits on the " +
					"next — guard the send with a select holding a default or escape case",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags
}

// cycleText renders the members of one channel SCC.
func cycleText(chans []types.Object, scc []int, comp int) string {
	var names []string
	for i, c := range scc {
		if c == comp {
			names = append(names, chans[i].Name())
		}
	}
	sort.Strings(names)
	if len(names) == 1 {
		return names[0] + " → " + names[0]
	}
	return strings.Join(names, " → ") + " → " + names[0]
}

// chanEdgeKey is one recv→send edge of the channel graph.
type chanEdgeKey struct{ from, to int }

// chanSCC computes strongly connected components (Tarjan) over the
// channel graph, returning each node's component id.
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
