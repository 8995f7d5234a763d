package exp

import (
	"fmt"
	"io"

	"pga/internal/cluster"
)

// A09 — Alba, Nebro & Troya (2002, JPDC), reviewed in §4: a distributed
// PGA running simultaneously on heterogeneous machines and networks; the
// analysis shows how heterogeneity penalises synchronous islands (every
// barrier waits for the slowest machine) while asynchronous islands keep
// fast nodes productive. The reproduction models the same run profile on
// virtual clusters of increasing heterogeneity and reports the sync/async
// makespan gap on LAN- and WAN-class links.
func init() {
	register(Experiment{
		ID:     "A09",
		Title:  "heterogeneous clusters: the synchronous barrier tax (modelled)",
		Source: "Alba, Nebro & Troya 2002 (survey §4): heterogeneous computing and PGAs",
		Run:    runA09,
	})
}

func runA09(w io.Writer, quick bool) {
	profile := cluster.IslandProfile{
		Generations:       scale(quick, 200, 60),
		EvalsPerGen:       50,
		EvalCost:          1e-4,
		MigrationInterval: 10,
		MessageBytes:      1024,
	}

	// Load-fluctuation levels: non-dedicated workstations where each
	// generation's compute cost varies by up to the given fraction.
	levels := []struct {
		name   string
		jitter float64
	}{
		{"dedicated (no load)", 0},
		{"light load (±25%)", 0.25},
		{"busy (±50%)", 0.5},
		{"heavily shared (±100%)", 1.0},
	}
	// Homogeneous base speeds isolate the fluctuation effect: with mixed
	// base speeds the permanently slowest node dominates both modes and
	// masks the straggler variance.
	nodes := cluster.UniformNodes(8)

	fprintf(w, "8 island nodes (nominal speed), %d generations, modelled makespans (s)\n\n", profile.Generations)
	fprintf(w, "%-24s %-26s %-26s\n", "workstation load", "GigE sync/async", "Internet sync/async")
	for _, lv := range levels {
		row := fmt.Sprintf("%-24s", lv.name)
		for _, link := range []cluster.LinkSpec{cluster.GigabitEthernet, cluster.Internet} {
			p := profile
			p.Sync = true
			syncT := cluster.IslandMakespanJittered(nodes, link, p, lv.jitter, 7)
			p.Sync = false
			asyncT := cluster.IslandMakespanJittered(nodes, link, p, lv.jitter, 7)
			row += fmt.Sprintf(" %-26s", fmt.Sprintf("%.3f / %.3f (%.2f×)", syncT, asyncT, syncT/asyncT))
		}
		fprintf(w, "%s\n", row)
	}
	fprintf(w, "\nshape check: with dedicated machines sync and async coincide (the barrier only\n")
	fprintf(w, "pays the migration message — visible on the high-latency Internet link). As\n")
	fprintf(w, "background load fluctuates, the synchronous barrier pays the per-generation\n")
	fprintf(w, "straggler maximum while async nodes pay only their own time, and the gap\n")
	fprintf(w, "widens with load — Alba's case for asynchronous PGAs on non-dedicated\n")
	fprintf(w, "heterogeneous LAN/WAN hardware.\n")
}
