// Command pgaperf is the repository's benchmark: four workloads run
// through the real pgarun and pgaisland binaries and measured from
// outside (end-to-end rates, CPU cost, memory, set-up time), a
// correctness gate on every output, and a per-layer budget from a
// traced in-process run plus direct probes of each layer. README.md in
// this directory explains the workloads, the metrics and how to compare
// two commits; BENCHMARK.json at the repository root is the contract a
// driver runs it under.
//
// By hand, from the repository root:
//
//	go run ./cmd/pgaperf -seed 1 -out perf.json
//
// runs every workload (1 warm-up + 7 measured repetitions each,
// interleaved), then the traced pass, and prints every metric. A driver
// runs one workload at a time:
//
//	go run ./cmd/pgaperf --workload bitwise-gen --seed 1 --seconds 12 --trace 0
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// fixedReps is the measured repetitions per workload when no
	// -seconds budget is given.
	fixedReps = 7
	// minReps is the fewest measured repetitions a -seconds budget may
	// end on; referenceReps is what a traced-only invocation measures to
	// have something to compare the traced run with.
	minReps       = 3
	referenceReps = 3
)

// config is one invocation of the harness.
type config struct {
	workloads []string
	seed      uint64
	// seconds, when positive, replaces the fixed repetition count: rounds
	// of repetitions continue until that much measured time has passed.
	seconds float64
	// reps is the fixed repetition count (fixedReps; the smoke test runs
	// fewer).
	reps     int
	untraced bool // measure end to end (trace 0)
	traced   bool // run the traced pass and the probes (trace 1)
	dir      string
	spans    string
	sz       sizes
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  values             `json:"per_layer,omitempty"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// result is the whole invocation, as written to -out.
type result struct {
	Seed      uint64            `json:"seed"`
	GoVersion string            `json:"go_version"`
	NumCPU    int               `json:"nproc"`
	BuildS    float64           `json:"build_s"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *result) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// run executes one invocation: build, generate, measure, check, trace.
func run(cfg config, log io.Writer) (*result, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	dir := cfg.dir
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	bins, err := buildBinaries(root, filepath.Join(dir, "bin"))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "built pgarun and pgaisland in %.2f s (not a metric: it measures the Go build cache)\n", bins.buildS)

	res := &result{Seed: cfg.seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), BuildS: bins.buildS}
	type state struct {
		wd    workDir
		docs  []document
		reps  []rep // measured repetitions (the warm-up is dropped)
		setup []float64
		out   *workloadResult
	}
	states := make([]*state, len(cfg.workloads))
	for i, wl := range cfg.workloads {
		st := &state{wd: workDir{dir: filepath.Join(dir, wl), bins: bins}, out: &workloadResult{Name: wl}}
		states[i] = st
		res.Workloads = append(res.Workloads, st.out)
		if err := os.MkdirAll(st.wd.dir, 0o755); err != nil {
			return nil, err
		}
		if wl != wlWire {
			if st.docs, err = pgarunDocs(wl, cfg.seed, cfg.sz); err != nil {
				return nil, err
			}
			if err := st.wd.writeDocs(st.docs); err != nil {
				return nil, err
			}
		}
	}

	// Untraced repetitions of fixed work, round-robin across workloads so
	// a slow phase of the shared host hits all of them. Round 0 warms up.
	want := cfg.reps
	if !cfg.untraced && want > referenceReps {
		want = referenceReps
	}
	measured := 0.0
	enough := func(rounds int) bool { // rounds completed, the warm-up included
		if cfg.untraced && cfg.seconds > 0 {
			return rounds > minReps && measured >= cfg.seconds
		}
		return rounds > want
	}
	for round := 0; !enough(round); round++ {
		for i, wl := range cfg.workloads {
			st := states[i]
			if cfg.untraced {
				slice, err := sampleSetup(wl, cfg.seed, cfg.sz, filepath.Join(st.wd.dir, "setup"))
				if err != nil {
					return nil, fmt.Errorf("%s: set-up: %w", wl, err)
				}
				st.setup = append(st.setup, slice...)
			}
			var r rep
			if wl == wlWire {
				r = st.wd.runWireRep(cfg.seed, cfg.sz)
			} else {
				r = st.wd.runPgarunRep(wl, st.docs, cfg.sz)
			}
			st.out.Attempted += r.attempted
			st.out.Failed += len(r.failures)
			st.out.Failures = append(st.out.Failures, r.failures...)
			if round > 0 {
				st.reps = append(st.reps, r)
				measured += r.wallS
			}
		}
	}

	var recorders []*recorder
	for i, wl := range cfg.workloads {
		st := states[i]
		if wl != wlWire {
			fails := checkRepeatable(wl, st.reps)
			st.out.Failed += len(fails)
			st.out.Failures = append(st.out.Failures, fails...)
		}
		e2e := endToEndSamples(wl, st.reps)
		if cfg.untraced {
			e2e["setup_s"] = st.setup
			st.out.EndToEnd = map[string]summary{}
			for name, samples := range e2e {
				st.out.EndToEnd[name] = summarize(samples)
			}
		}
		if !cfg.traced {
			continue
		}
		if st.out.Failed > 0 {
			// The traced pass compares itself with these repetitions.
			st.out.Failures = append(st.out.Failures, wl+": traced pass skipped after failed repetitions")
			st.out.Failed++
			continue
		}
		ref := reference{
			wallS:     median(e2eWalls(st.reps)),
			evalsPerS: median(e2e["evals_per_s"]),
			outputs:   st.reps[0].outputs,
			dropShare: median(dropShares(st.reps)),
		}
		var t traced
		switch wl {
		case wlWire:
			t = traceWire(cfg.seed, cfg.sz, ref)
		case wlMatrix:
			t = traceMatrix(st.docs, cfg.seed, cfg.sz, ref)
		default:
			t = traceSingle(wl, st.docs[0], cfg.seed, cfg.sz, ref)
		}
		st.out.PerLayer = t.values
		st.out.Attempted += t.attempted
		st.out.Failed += len(t.failures)
		st.out.Failures = append(st.out.Failures, t.failures...)
		recorders = append(recorders, t.recorders...)
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, recorders); err != nil {
			return res, err
		}
	}
	return res, nil
}

// e2eWalls lists the repetitions' wall times.
func e2eWalls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wallS
	}
	return out
}

// dropShares lists Dropped / Sent per repetition (wire-ring2).
func dropShares(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		if r.net.Sent > 0 {
			out[i] = float64(r.net.Dropped) / float64(r.net.Sent)
		}
	}
	return out
}

// endToEndSamples turns repetitions into one sample list per
// end-to-end metric defined on the workload (setup_s is measured
// separately).
func endToEndSamples(wl string, reps []rep) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		if r.wallS <= 0 || r.evals <= 0 {
			continue // a failed repetition; already counted
		}
		out["evals_per_s"] = append(out["evals_per_s"], float64(r.evals)/r.wallS)
		out["cpu_s_per_mevals"] = append(out["cpu_s_per_mevals"], r.cpuS/(float64(r.evals)/1e6))
		out["peak_rss_mb"] = append(out["peak_rss_mb"], r.rssMiB)
		switch wl {
		case wlBitwise:
			if r.evalsToTarget > 0 {
				out["evals_to_target"] = append(out["evals_to_target"], float64(r.evalsToTarget))
			}
		case wlMatrix:
			out["cells_per_s"] = append(out["cells_per_s"], float64(r.cells)/r.wallS)
		case wlWire:
			out["batches_per_s"] = append(out["batches_per_s"], float64(r.batches)/r.wallS)
		}
	}
	return out
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the driver's JSON line last (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed: feeds every seed field of the generated inputs")
	seconds := flag.Float64("seconds", 0, "measure repetitions for about this long instead of a fixed 7 per workload")
	trace := flag.String("trace", "", `"0": end-to-end metrics only; "1": per-layer metrics only; default both`)
	out := flag.String("out", "", "write the full result as JSON to this file")
	spans := flag.String("spans", "", "write the traced runs' spans to this file as JSON lines")
	dir := flag.String("dir", ".pgaperf", "work directory (binaries, generated inputs, outputs), relative to the repository root")
	flag.Parse()

	cfg := config{
		workloads: workloadNames, seed: *seed, seconds: *seconds, reps: fixedReps,
		untraced: *trace != "1", traced: *trace != "0",
		dir: *dir, spans: *spans, sz: fullSizes,
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %q", *trace))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *workload != "" {
		if _, ok := workloadWhy[*workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q (known: %v)", *workload, workloadNames))
		}
		cfg.workloads = []string{*workload}
	}

	start := time.Now()
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, res)
	fmt.Printf("total %.1f s\n", time.Since(start).Seconds())
	if *out != "" {
		data, merr := json.MarshalIndent(res, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fatal(merr)
		}
	}
	if *workload != "" {
		line, lerr := driverLine(res.Workloads[0], cfg.traced && !cfg.untraced)
		if lerr != nil {
			fatal(lerr)
		}
		fmt.Println(line)
	}
	if res.failed() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgaperf:", err)
	os.Exit(2)
}
