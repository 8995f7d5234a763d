// Command pgabench runs the experiment suite that regenerates the
// survey's table and every reviewed quantitative claim (see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	pgabench               # run the full suite (minutes)
//	pgabench -quick        # reduced sizes (seconds; smoke test)
//	pgabench -list         # list experiment IDs
//	pgabench -run E02,E06  # run selected experiments
//
// Performance is measured by cmd/pgaperf (see its README), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pga/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "run with reduced sizes")
	list := flag.Bool("list", false, "list experiments and exit")
	runIDs := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *runIDs == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "pgabench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("pgabench: %d experiment(s), %s mode\n", len(selected), mode)
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Printf("    reproduces: %s\n\n", e.Source)
		e.Run(os.Stdout, *quick)
		fmt.Printf("\n    [%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("\npgabench: suite completed in %v\n", time.Since(start).Round(time.Millisecond))
}
