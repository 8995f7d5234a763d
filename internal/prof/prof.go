// Package prof switches the Go runtime's CPU profile and execution trace
// on and off for the command-line binaries (-cpuprofile, -trace).
package prof

import (
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins a CPU profile written to cpuFile and an execution trace
// written to traceFile; an empty name leaves that one off. The returned
// stop ends both and closes the files — until it has run the files are
// incomplete — and may be called once.
func Start(cpuFile, traceFile string) (stop func() error, err error) {
	var stops []func() error
	stop = func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	begin := func(path string, start func(io.Writer) error, end func()) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := start(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() error {
			end()
			return f.Close()
		})
		return nil
	}
	if err := begin(cpuFile, pprof.StartCPUProfile, pprof.StopCPUProfile); err != nil {
		return nil, err
	}
	if err := begin(traceFile, trace.Start, trace.Stop); err != nil {
		stop() // the CPU profile, if one was started
		return nil, err
	}
	return stop, nil
}
