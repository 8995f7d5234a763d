// Command perfcompare measures a base revision against the working tree
// with the repository's benchmark, the way cmd/pgaperf/README.md says a
// performance claim has to be made: the base is exported with `git
// archive` into a temporary directory, and `go run ./cmd/pgaperf
// -workload W -seed i -seconds <run_seconds of BENCHMARK.json> -trace 0`
// runs on each side for seeds 1..pairs, alternating which side goes
// first. Each tree builds its own harness and binaries, so the base is
// measured by the base's benchmark.
//
// It prints every pair as it completes, then for every end-to-end metric
// in BENCHMARK.json the pairs each side won, both medians, the base's
// interquartile range and a verdict: "gain" when the change wins at least
// nine tenths of the pairs and the medians differ by more than the base's
// IQR, "REGRESSION" when the change's median is worse than the base's by
// more than the metric's bound, "unresolved" when the base's own spread
// exceeds that bound or its median is zero (no relative change to judge),
// and "within bound" otherwise. It exits non-zero on a regression, on a
// run whose correctness gate failed or whose driver line lacks one of
// those metrics, or when the change fails a larger share of operations
// than the base.
//
// Usage (from the repository root, or `make perf-compare BASE=<rev>
// WORKLOAD=<name> [PAIRS=10]`):
//
//	go run ./cmd/perfcompare -base HEAD~1 -workload bitwise-gen
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json a comparison needs.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// driverLine is the JSON object pgaperf prints last under -workload.
type driverLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side accumulates one tree's runs.
type side struct {
	name      string
	dir       string
	values    map[string][]float64 // metric → one value per pair
	attempted int
	failed    int
	incorrect int
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "pgaperf workload name (required)")
	pairs := flag.Int("pairs", 10, "number of alternating base/change pairs")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "perfcompare:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := make([]string, len(bm.EndToEnd))
	for i, m := range bm.EndToEnd {
		metrics[i] = m.Name
	}

	baseDir, err := os.MkdirTemp("", "pga-perf-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	if err := export(base, baseDir); err != nil {
		return err
	}

	parent := &side{name: "base", dir: baseDir, values: map[string][]float64{}}
	change := &side{name: "change", dir: ".", values: map[string][]float64{}}
	for i := 1; i <= pairs; i++ {
		order := []*side{parent, change}
		if i%2 == 0 {
			order = []*side{change, parent}
		}
		for _, s := range order {
			if err := s.measure(workload, i, bm.RunSeconds, metrics); err != nil {
				return err
			}
		}
		fmt.Printf("pair %d/%d (seed %d, %s first):", i, pairs, i, order[0].name)
		for _, m := range bm.EndToEnd {
			fmt.Printf("  %s %.5g -> %.5g", m.Name, parent.values[m.Name][i-1], change.values[m.Name][i-1])
		}
		fmt.Println()
	}

	fmt.Printf("\n%s: %s (base) vs working tree, %d pairs, -seconds %d\n", workload, base, pairs, bm.RunSeconds)
	fmt.Printf("%-18s %-6s %9s %12s %12s %12s %8s  %s\n",
		"metric", "unit", "wins c/b", "base median", "base IQR", "change med.", "ratio", "verdict")
	bad := false
	for _, m := range bm.EndToEnd {
		r := judge(parent.values[m.Name], change.values[m.Name], m.Better == "higher", m.Bound)
		bad = bad || r.verdict == "REGRESSION"
		ratio := "-"
		if r.baseMedian != 0 {
			ratio = fmt.Sprintf("%.3f", r.changeMedian/r.baseMedian)
		}
		fmt.Printf("%-18s %-6s %9s %12.5g %12.5g %12.5g %8s  %s\n",
			m.Name, m.Unit, fmt.Sprintf("%d/%d", r.changeWins, r.baseWins),
			r.baseMedian, r.baseIQR, r.changeMedian, ratio, r.verdict)
	}
	fmt.Printf("operations failed: base %d/%d, change %d/%d\n",
		parent.failed, parent.attempted, change.failed, change.attempted)
	switch {
	case parent.incorrect+change.incorrect > 0:
		return fmt.Errorf("correctness gate failed in %d base and %d change runs", parent.incorrect, change.incorrect)
	case change.failed*parent.attempted > parent.failed*change.attempted:
		return fmt.Errorf("the change fails a larger share of operations than the base")
	case bad:
		return fmt.Errorf("an end-to-end metric is worse than its BENCHMARK.json bound")
	}
	return nil
}

// judgement is one metric's comparison over all pairs.
type judgement struct {
	changeWins, baseWins              int // ties count for neither
	baseMedian, baseIQR, changeMedian float64
	verdict                           string
}

// judge applies the benchmark's rules to paired samples of one metric
// (base[i] and change[i] are the two sides of pair i). The rules are
// relative to the base's median, so a base median of zero is unresolved.
func judge(base, change []float64, higher bool, bound float64) judgement {
	var j judgement
	for i := range base {
		switch {
		case change[i] == base[i]:
		case (change[i] > base[i]) == higher:
			j.changeWins++
		default:
			j.baseWins++
		}
	}
	q1, med, q3 := quartiles(base)
	j.baseMedian, j.baseIQR = med, q3-q1
	_, j.changeMedian, _ = quartiles(change)
	if med == 0 {
		j.verdict = "unresolved"
		return j
	}
	worse := (j.changeMedian - med) / med // share by which the change is worse
	if higher {
		worse = -worse
	}
	switch {
	case worse > bound:
		j.verdict = "REGRESSION"
	case worse < 0 && 10*j.changeWins >= 9*len(base) && math.Abs(j.changeMedian-med) > j.baseIQR:
		j.verdict = "gain"
	case j.baseIQR/med > bound:
		j.verdict = "unresolved"
	default:
		j.verdict = "within bound"
	}
	return j
}

// export unpacks revision rev of the current repository into dir.
func export(rev, dir string) error {
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Stderr = os.Stderr
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return fmt.Errorf("tar: %w", err)
	}
	if err := archive.Run(); err != nil {
		_ = untar.Wait() // the archive error is the one to report
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar: %w", err)
	}
	return nil
}

// measure runs the benchmark once in s.dir and records the named metrics
// of its driver line.
func (s *side) measure(workload string, seed, seconds int, metrics []string) error {
	cmd := exec.Command("go", "run", "./cmd/pgaperf", "-workload", workload,
		"-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // a failed gate exits non-zero but still prints its line
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return fmt.Errorf("%s: no driver line from pgaperf (%v): %w", s.dir, runErr, err)
	}
	s.attempted += line.Attempted
	s.failed += line.Failed
	if !line.Correct {
		s.incorrect++
	}
	for _, name := range metrics {
		m, ok := line.Metrics[name]
		if !ok {
			return fmt.Errorf("%s: pgaperf's driver line has no metric %s", s.dir, name)
		}
		s.values[name] = append(s.values[name], m.Value)
	}
	return nil
}

// quartiles returns the lower quartile, median and upper quartile of v
// by linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
