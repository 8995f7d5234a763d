// Multi-objective optimisation with the specialized island model (SIM):
// runs all seven Xiao & Armstrong scenarios on ZDT1 and prints the
// near-front coverage each achieves, plus a text rendering of the best
// front found.
package main

import (
	"fmt"
	"sort"

	"pga"
)

func main() {
	fmt.Println("specialized island model on ZDT1(10): seven scenarios")
	fmt.Println()
	fmt.Printf("%-28s %-10s %-12s %-8s\n", "scenario", "islands", "tight-HV", "archive")

	var bestHV float64
	var bestRes *pga.SIMResult
	for _, s := range pga.SIMScenarios() {
		res := pga.RunSIM(pga.SIMConfig{
			Problem:     pga.ZDT1(10),
			Scenario:    s,
			DemeSize:    30,
			Generations: 60,
			HVRef:       [2]float64{1.1, 1.1},
			Seed:        3,
		}, pga.Control{})
		fmt.Printf("%-28s %-10d %-12.4f %-8d\n", s, res.Islands, res.Hypervolume, res.Archive.Len())
		if res.Hypervolume > bestHV {
			bestHV, bestRes = res.Hypervolume, res
		}
	}

	fmt.Printf("\nbest front (%s), f1 ascending:\n", bestRes.Scenario)
	items := bestRes.Archive.Items()
	pts := make([][]float64, 0, len(items))
	for _, it := range items {
		if it.Objectives[0] <= 1.1 && it.Objectives[1] <= 1.1 {
			pts = append(pts, it.Objectives)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	shown := 0
	for _, p := range pts {
		if shown >= 12 {
			fmt.Printf("  … and %d more near-front points\n", len(pts)-shown)
			break
		}
		fmt.Printf("  f1=%.4f  f2=%.4f\n", p[0], p[1])
		shown++
	}
}
