package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pga/internal/island"
	"pga/internal/spec"
)

// Set-up is a few milliseconds of work, so it is timed many times per
// invocation and setup_s is the median. The samples are taken in
// slices, one before each round of repetitions, so they spread over the
// whole invocation instead of sitting inside one slow phase of the
// host: per slice at least setupMinRepeats, then on until setupSlice has
// passed or setupMaxRepeats is reached.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 40
	setupSlice      = 60 * time.Millisecond
)

// setupOnce times everything that happens before a workload's first
// generation: generating its inputs from the seed, and what the program
// then does with them — spec.ParseFile, sweep expansion and spec.Build
// (problem instance, operators, initial population and its evaluation)
// for the pgarun workloads; for wire-ring2 the NK instance, the
// listener bind, the address/peers-file rendezvous, the endpoints and
// each island's engine. It runs in the harness's process through the
// same calls the binaries make, so work a later change moves out of
// the generation loop and into set-up shows here.
func setupOnce(wl string, seed uint64, sz sizes, scratch string) (float64, error) {
	start := time.Now()
	if wl == wlWire {
		if err := setupWire(seed, scratch); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	docs, err := pgarunDocs(wl, seed, sz)
	if err != nil {
		return 0, err
	}
	for _, d := range docs {
		f, err := spec.ParseFile(d.JSON)
		if err != nil {
			return 0, fmt.Errorf("%s/%s: %w", wl, d.Name, err)
		}
		specs := []spec.RunSpec{}
		if f.Single != nil {
			specs = append(specs, *f.Single)
		} else {
			cells, cerr := f.Sweep.Cells()
			if cerr != nil {
				return 0, fmt.Errorf("%s/%s: %w", wl, d.Name, cerr)
			}
			for _, c := range cells {
				specs = append(specs, c.Spec)
			}
		}
		for _, s := range specs {
			if _, err := spec.Build(s); err != nil {
				return 0, fmt.Errorf("%s/%s: %w", wl, d.Name, err)
			}
		}
	}
	return time.Since(start).Seconds(), nil
}

// setupWire performs the set-up of both islands of the ring.
func setupWire(seed uint64, scratch string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	eps, err := tcpPair(seed, nil)
	if err != nil {
		return err
	}
	defer eps[0].Close()
	defer eps[1].Close()
	// The rendezvous: each island publishes its address, the launcher
	// publishes the joined list, each island reads it back.
	addrs := make([]string, wireIslands)
	for i, ep := range eps {
		addrs[i] = ep.Addr().String()
		if err := os.WriteFile(filepath.Join(scratch, fmt.Sprintf("addr.%d", i)), []byte(addrs[i]+"\n"), 0o644); err != nil {
			return err
		}
	}
	peers := filepath.Join(scratch, "peers")
	if err := os.WriteFile(peers, []byte(strings.Join(addrs, ",")+"\n"), 0o644); err != nil {
		return err
	}
	for i := 0; i < wireIslands; i++ {
		if _, err := os.ReadFile(peers); err != nil {
			return err
		}
		prob, err := wireProblem(seed)
		if err != nil {
			return err
		}
		engineRNG, _ := island.WireStreams(seed, wireIslands, i)
		wireEngine(prob, engineRNG)
	}
	return nil
}

// sampleSetup times one slice of set-up repetitions (see setupSlice).
func sampleSetup(wl string, seed uint64, sz sizes, scratch string) ([]float64, error) {
	var samples []float64
	for start := time.Now(); len(samples) < setupMinRepeats ||
		(len(samples) < setupMaxRepeats && time.Since(start) < time.Duration(float64(setupSlice)*sz.probe)); {
		// Set-up allocates (instances, populations); collecting first
		// keeps one repetition's garbage from being paid for by the next.
		runtime.GC()
		s, err := setupOnce(wl, seed, sz, scratch)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}
