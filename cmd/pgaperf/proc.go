package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// childTimeout bounds one child process. The longest child of the full
// sizes runs ~3 s; a hung one is killed and reaped well inside the
// harness's own 180 s budget.
const childTimeout = 60 * time.Second

// moduleRoot walks up from the working directory to the directory
// holding this repository's go.mod, so the harness works from the
// checkout root (the benchmark command) and from its own package
// directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module pga") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("pgaperf: not inside the pga module (no go.mod declaring module pga found)")
		}
		dir = parent
	}
}

// binaries are the programs under test, built once per invocation.
type binaries struct {
	pgarun, pgaisland string
	// buildS is the wall time of the go build. It is printed but is not
	// a metric: it measures the Go build cache.
	buildS float64
}

// buildBinaries compiles cmd/pgarun and cmd/pgaisland from the source
// tree at root into binDir.
func buildBinaries(root, binDir string) (binaries, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return binaries{}, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return binaries{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/pgarun", "./cmd/pgaisland")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out.String())
	}
	return binaries{
		pgarun:    filepath.Join(abs, "pgarun"),
		pgaisland: filepath.Join(abs, "pgaisland"),
		buildS:    time.Since(start).Seconds(),
	}, nil
}

// procResult is what one reaped child process cost.
type procResult struct {
	wallS  float64
	cpuS   float64 // user + system, from rusage
	rssMiB float64 // peak resident set (see watchPeakRSS)
	stdout []byte
	stderr []byte
	// err is non-nil on a start failure, a non-zero exit or a timeout.
	err error
}

// child is a started process. wait must be called exactly once; it
// always reaps the process (exec.CommandContext kills it when the
// timeout fires, and Wait collects it).
type child struct {
	cmd            *exec.Cmd
	cancel         context.CancelFunc
	start          time.Time
	stdout, stderr bytes.Buffer
	exited         chan struct{} // closed by wait once the process is reaped
	peakRSS        chan float64  // the watcher's answer, MiB
}

// startProc launches bin with args in dir.
func startProc(dir, bin string, args ...string) (*child, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	c := &child{
		cmd: exec.CommandContext(ctx, bin, args...), cancel: cancel,
		exited: make(chan struct{}), peakRSS: make(chan float64, 1),
	}
	c.cmd.Dir = dir
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	go func() { c.peakRSS <- watchPeakRSS(c.cmd.Process.Pid, c.exited) }()
	return c, nil
}

// rssPollInterval is how often a running child's VmHWM is read.
const rssPollInterval = 10 * time.Millisecond

// watchPeakRSS polls the child's VmHWM (the high-water mark of its own
// address space, in /proc/<pid>/status) until exited closes, and
// returns the last reading in MiB (0 if there was none). rusage.Maxrss
// cannot be used: a child carries its parent's resident set at fork
// time into its own ru_maxrss across exec, so every child of a 12 MiB
// harness reports at least 12 MiB whatever it did itself.
func watchPeakRSS(pid int, exited <-chan struct{}) float64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	tick := time.NewTicker(rssPollInterval)
	defer tick.Stop()
	peakKiB := 0.0
	for {
		if data, err := os.ReadFile(path); err == nil {
			if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscan(rest, &kib); err == nil && kib > peakKiB {
					peakKiB = kib
				}
			}
		}
		select {
		case <-exited:
			return peakKiB / 1024
		case <-tick.C:
		}
	}
}

// wait reaps the child and returns what it cost.
func (c *child) wait() procResult {
	err := c.cmd.Wait()
	wall := time.Since(c.start)
	c.cancel()
	close(c.exited)
	res := procResult{
		wallS: wall.Seconds(), rssMiB: <-c.peakRSS,
		stdout: c.stdout.Bytes(), stderr: c.stderr.Bytes(),
	}
	if st := c.cmd.ProcessState; st != nil {
		res.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
	}
	if err != nil {
		res.err = fmt.Errorf("%s: %w: %s", filepath.Base(c.cmd.Path), err, bytes.TrimSpace(res.stderr))
	}
	return res
}

// runProc runs one child to completion.
func runProc(dir, bin string, args ...string) procResult {
	c, err := startProc(dir, bin, args...)
	if err != nil {
		return procResult{err: err}
	}
	return c.wait()
}
