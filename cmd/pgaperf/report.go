package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// verdict is the self-noise report of one end-to-end metric: its
// spread over the repetitions beside its bound. A metric whose spread
// exceeds its bound cannot resolve a regression of that size on this
// host right now, and says so instead of producing a false verdict.
func verdict(def metricDef, s summary) string {
	switch {
	case def.Bound == 0 && s.Min == s.Max:
		return "exact"
	case def.Bound == 0:
		return "CHANGED between repetitions"
	case s.spread() > def.Bound:
		return "unresolved"
	default:
		return "ok"
	}
}

// printReport prints every metric by name with its unit: the
// end-to-end metrics as median, quartiles, extremes and sample count
// with the self-noise verdict, then the per-layer metrics.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "seed %d  %s  nproc %d\n", res.Seed, res.GoVersion, res.NumCPU)
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n== %s  ops_attempted %d  ops_failed %d\n", wl.Name, wl.Attempted, wl.Failed)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		if len(wl.EndToEnd) > 0 {
			fmt.Fprintf(w, "   %-18s %-6s %14s %14s %14s %14s %14s %3s  %7s %6s  %s\n",
				"end-to-end", "unit", "median", "q1", "q3", "min", "max", "n", "iqr/med", "bound", "")
		}
		for _, def := range endToEnd {
			s, ok := wl.EndToEnd[def.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-18s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %3d  %6.1f%% %5.0f%%  %s\n",
				def.Name, def.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, 100*s.spread(), 100*def.Bound, verdict(def, s))
		}
		if len(wl.PerLayer) > 0 {
			fmt.Fprintf(w, "   %-40s %-6s %14s\n", "per-layer", "unit", "value")
		}
		for _, def := range perLayer {
			if v, ok := wl.PerLayer[def.Name]; ok {
				fmt.Fprintf(w, "   %-40s %-6s %14.6g\n", def.Name, def.Unit, v)
			}
		}
	}
}

// driverLine renders the one JSON object a driver reads from the last
// line of standard output: the universal end-to-end metrics of an
// untraced invocation, or the universal per-layer metrics of a traced
// one, each as measured with all its digits.
func driverLine(wl *workloadResult, layers bool) (string, error) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]reading{}
	if layers {
		for _, def := range perLayer {
			if v, ok := wl.PerLayer[def.Name]; ok && def.universal() {
				metrics[def.Name] = reading{Value: v, Unit: def.Unit}
			}
		}
	} else {
		for _, def := range endToEnd {
			if s, ok := wl.EndToEnd[def.Name]; ok && def.universal() {
				metrics[def.Name] = reading{Value: s.Median, Unit: def.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{wl.Failed == 0, wl.Attempted, wl.Failed, metrics})
	return string(line), err
}
