package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pga/internal/core"
	"pga/internal/spec"
)

// inFlightSlack bounds the batches a finished wire run may leave
// unaccounted for: frames one island's sender wrote into the socket
// that its peer had not yet decoded when it closed. They sit in kernel
// socket buffers, so the transport counts them neither delivered nor
// dropped. Forty quiet runs left 1-10, a slow phase of the host more
// than 16 about once in a hundred runs; 1% of the batches sent still
// catches accounting that leaks.
func inFlightSlack(sent int64) int64 {
	if slack := sent / 100; slack > 16 {
		return slack
	}
	return 16
}

// rep is one untraced repetition of a workload: fixed work through the
// real binaries, measured from outside the processes.
type rep struct {
	wallS  float64
	cpuS   float64
	rssMiB float64

	evals int64
	// cells counts sweep cells (model-matrix), batches the migrant
	// batches received (wire-ring2), evalsToTarget bitwise-gen's
	// solved_at_eval.
	cells         int
	batches       int64
	evalsToTarget int64
	net           core.NetStats

	// outputs holds the result file of each document, compared byte for
	// byte across repetitions and against the traced run.
	outputs [][]byte

	attempted int
	failures  []string
}

func (r *rep) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workDir is where one workload's generated inputs and the programs'
// outputs live; every file can be replayed by hand.
type workDir struct {
	dir  string
	bins binaries
}

// writeDocs writes the generated documents into the work directory.
func (w workDir) writeDocs(docs []document) error {
	for _, d := range docs {
		if err := os.WriteFile(filepath.Join(w.dir, d.Name+".json"), d.JSON, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runPgarunRep runs every document of a pgarun workload once, one
// process per document. One operation is one sweep cell (one run for a
// single-run document).
func (w workDir) runPgarunRep(wl string, docs []document, sz sizes) rep {
	var r rep
	for _, d := range docs {
		out := filepath.Join(w.dir, d.Name+".result.json")
		_ = os.Remove(out) // a stale result must not pass for this run's
		p := runProc(w.dir, w.bins.pgarun, "-config", d.Name+".json", "-quiet", "-out", out)
		r.wallS += p.wallS
		r.cpuS += p.cpuS
		if p.rssMiB > r.rssMiB {
			r.rssMiB = p.rssMiB
		}
		var data []byte
		var reports []*spec.Report
		err := p.err
		if err == nil {
			data, err = os.ReadFile(out)
		}
		if err == nil {
			err = json.Unmarshal(data, &reports)
		}
		if err == nil && len(reports) == 0 {
			err = errors.New("no reports in the result file")
		}
		if err != nil {
			r.attempted++
			r.failf("%s/%s: %v", wl, d.Name, err)
			r.outputs = append(r.outputs, nil)
			continue
		}
		r.outputs = append(r.outputs, data)
		r.attempted += len(reports)
		r.cells += len(reports)
		for _, rp := range reports {
			r.evals += rp.Evaluations
		}
		checkSingleRun(&r, wl, reports[0], sz)
	}
	return r
}

// checkSingleRun applies the closed-form checks of the two long runs.
func checkSingleRun(r *rep, wl string, rp *spec.Report, sz sizes) {
	var gens int
	switch wl {
	case wlBitwise:
		gens = sz.bitwiseGens
	case wlEvalHeavy:
		gens = sz.evalGens
	default:
		return
	}
	if want := generationalEvals(runPop, gens); rp.Evaluations != want || rp.Generations != gens {
		r.failf("%s: %d evaluations in %d generations, closed form says %d in %d",
			wl, rp.Evaluations, rp.Generations, want, gens)
	}
	if wl == wlBitwise {
		r.evalsToTarget = rp.SolvedAtEval
		if sz.full && (!rp.Solved || rp.SolvedAtGen <= 0) {
			r.failf("%s: run did not pass its optimum (solved=%v at generation %d)", wl, rp.Solved, rp.SolvedAtGen)
		}
	}
}

// islandResult is the part of pgaisland's stdout contract the harness
// reads.
type islandResult struct {
	Self        int           `json:"self"`
	Generations int           `json:"generations"`
	Evaluations int64         `json:"evaluations"`
	Net         core.NetStats `json:"net"`
}

// runWireRep runs the two-process island ring once: start both
// islands on kernel-chosen ports, collect their published addresses,
// hand both the peer list, and reap both. One operation is one process.
func (w workDir) runWireRep(seed uint64, sz sizes) rep {
	r := rep{attempted: wireIslands}
	rdv := filepath.Join(w.dir, "rendezvous")
	if err := os.RemoveAll(rdv); err != nil {
		r.failf("%s: %v", wlWire, err)
		return r
	}
	if err := os.MkdirAll(rdv, 0o755); err != nil {
		r.failf("%s: %v", wlWire, err)
		return r
	}
	addrFile := func(i int) string { return filepath.Join(rdv, fmt.Sprintf("addr.%d", i)) }
	peersFile := filepath.Join(rdv, "peers")

	start := time.Now()
	var kids []*child
	var err error
	for i := 0; i < wireIslands && err == nil; i++ {
		args := append(wireArgs(seed, sz, i), "-addrfile", addrFile(i), "-peersfile", peersFile)
		var c *child
		if c, err = startProc(w.dir, w.bins.pgaisland, args...); err == nil {
			kids = append(kids, c)
		}
	}
	if err == nil {
		err = publishPeers(addrFile, peersFile)
	}
	if err != nil {
		// The islands would give up waiting for the peers file on their
		// own; cancelling kills them now instead.
		r.failf("%s: %v", wlWire, err)
		for _, c := range kids {
			c.cancel()
		}
	}

	// Reap both concurrently: each island exits on its own schedule and
	// the slower one sets the wall time.
	results := make([]procResult, len(kids))
	var wg sync.WaitGroup
	for i, c := range kids {
		wg.Add(1)
		go func(i int, c *child) {
			defer wg.Done()
			results[i] = c.wait()
		}(i, c)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()

	for i, p := range results {
		r.cpuS += p.cpuS
		if p.rssMiB > r.rssMiB {
			r.rssMiB = p.rssMiB
		}
		if p.err != nil {
			r.failf("%s island %d: %v", wlWire, i, p.err)
			continue
		}
		var ir islandResult
		if err := json.Unmarshal(bytes.TrimSpace(p.stdout), &ir); err != nil {
			r.failf("%s island %d: unparsable result: %v", wlWire, i, err)
			continue
		}
		if ir.Generations != sz.wireGens {
			r.failf("%s island %d: stopped at generation %d of %d", wlWire, i, ir.Generations, sz.wireGens)
		}
		if want := generationalEvals(wirePop, sz.wireGens); ir.Evaluations != want {
			r.failf("%s island %d: %d evaluations, closed form says %d", wlWire, i, ir.Evaluations, want)
		}
		r.evals += ir.Evaluations
		r.net.Add(ir.Net)
	}
	r.batches = r.net.Received
	if len(r.failures) == 0 {
		checkConservation(&r, r.net)
	}
	return r
}

// checkConservation asserts the batch accounting of a finished ring,
// summed over its endpoints: nothing is received that was not
// delivered, nothing delivered that was not sent, and every sent batch
// is delivered or counted dropped, up to the few in flight at close.
func checkConservation(r *rep, n core.NetStats) {
	if n.Received > n.Delivered || n.Delivered > n.Sent {
		r.failf("%s: received %d <= delivered %d <= sent %d does not hold", wlWire, n.Received, n.Delivered, n.Sent)
	}
	if lost := n.Sent - (n.Delivered + n.Dropped); lost < 0 || lost > inFlightSlack(n.Sent) {
		r.failf("%s: %d of %d sent batches are neither delivered nor counted dropped", wlWire, lost, n.Sent)
	}
}

// publishPeers waits for every island's address file and then writes
// the id-ordered peer list, atomically, where the islands poll for it.
func publishPeers(addrFile func(int) string, peersFile string) error {
	addrs := make([]string, wireIslands)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < wireIslands; {
		data, err := os.ReadFile(addrFile(i))
		if err == nil && len(bytes.TrimSpace(data)) > 0 {
			addrs[i] = strings.TrimSpace(string(data))
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("island %d did not publish its address", i)
		}
		time.Sleep(time.Millisecond)
	}
	tmp := peersFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(addrs, ",")+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, peersFile)
}

// checkRepeatable compares every repetition's result files with the
// first's: the pgarun workloads are deterministic, so any difference is
// a failed operation.
func checkRepeatable(wl string, reps []rep) []string {
	var failures []string
	for i := 1; i < len(reps); i++ {
		if len(reps[i].outputs) != len(reps[0].outputs) {
			continue // the missing document already failed on its own
		}
		for d := range reps[i].outputs {
			if reps[i].outputs[d] != nil && reps[0].outputs[d] != nil && !bytes.Equal(reps[i].outputs[d], reps[0].outputs[d]) {
				failures = append(failures, fmt.Sprintf("%s: repetition %d document %d differs from the first repetition", wl, i, d))
			}
		}
		if reps[i].evalsToTarget != reps[0].evalsToTarget {
			failures = append(failures, fmt.Sprintf("%s: evals_to_target %d differs from the first repetition's %d", wl, reps[i].evalsToTarget, reps[0].evalsToTarget))
		}
	}
	return failures
}
