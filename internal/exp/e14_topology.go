package exp

import (
	"fmt"
	"io"
	"math/bits"

	"pga/internal/spec"
	"pga/internal/topology"
)

// E14 — the survey (§1.1, §3.2) calls topology "a new dimension" of GAs
// and inventories the common graphs: rings, grids, toruses, hypercubes,
// stars, fully connected. The reproduction compares all of them (plus a
// random regular graph) at equal deme count and migration policy,
// reporting graph diameter alongside search performance — the
// communication-vs-convergence tradeoff of Cantú-Paz's topology study.
func init() {
	registerSweep(Experiment{
		ID:     "E14",
		Title:  "topology comparison at equal deme count",
		Source: "survey §1.1/§3.2 topology inventory; Cantú-Paz 2000 topology effects",
	}, spec.RunOpts{}, reduceE14, "E14.json")
}

func reduceE14(w io.Writer, gs []grid) {
	first := gs[0][0].spec
	demes := first.Islands.Demes
	fprintf(w, "%d demes × %d on %s, migration every %d gens, %d runs/topology\n\n",
		demes, first.Engine.Pop, problemName(first), first.Islands.Migration.Interval, gs[0].runs())
	fprintf(w, "%-12s %-9s %-9s %-14s %-12s %-10s\n",
		"topology", "diameter", "hit-rate", "med-evals", "mean-best", "links")

	for _, r := range gs[0] {
		t := graph(r.spec.Islands.Topology, demes)
		links := 0
		for i := 0; i < t.Size(); i++ {
			links += len(t.Neighbors(i))
		}
		hit, final := r.outcome()
		fprintf(w, "%-12s %-9d %-9s %-14.0f %-12.2f %-10d\n",
			topologyLabel(r.spec.Islands.Topology), topology.Diameter(t), rate(hit), medianEffort(hit), final.Mean, links)
	}
	fprintf(w, "\nshape check: low-diameter graphs (complete, star, hypercube) spread good genes\n")
	fprintf(w, "fastest (fewer evaluations when they solve) but pay more links (communication);\n")
	fprintf(w, "sparse rings preserve diversity longest — the topology tradeoff the survey flags.\n")
}

// graph is the graph a topology spec wires on n demes, for the diameter
// and link columns (a "random" graph as first wired, before any rewire).
func graph(t spec.TopologySpec, n int) topology.Topology {
	switch t.Kind {
	case "biring":
		return topology.BiRing(n)
	case "star":
		return topology.Star(n)
	case "grid":
		return topology.Grid(t.Rows, t.Cols)
	case "torus":
		return topology.Torus(t.Rows, t.Cols)
	case "hypercube":
		return topology.Hypercube(bits.Len(uint(n)) - 1)
	case "complete":
		return topology.Complete(n)
	case "random":
		return topology.RandomRegular(n, t.Degree, t.Seed)
	}
	return topology.Ring(n)
}

// topologyLabel is a topology spec's name in the tables.
func topologyLabel(t spec.TopologySpec) string {
	switch t.Kind {
	case "biring":
		return "bi-ring"
	case "grid", "torus":
		return fmt.Sprintf("%s %dx%d", t.Kind, t.Rows, t.Cols)
	case "random":
		return fmt.Sprintf("random k=%d", t.Degree)
	}
	return t.Kind
}
