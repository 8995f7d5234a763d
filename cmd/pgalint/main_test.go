package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture modules live with the analysis package's testdata:
// fixmod lints clean (one package deliberately fails type checking);
// chainmod/app is spotless on its own and reaches math/rand only
// through chainmod/jitter.
const (
	fixmod   = "../../internal/analysis/testdata/fixmod"
	chainmod = "../../internal/analysis/testdata/chainmod"
)

var pgalintBin string

// TestMain builds the binary under test once.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgalint-test")
	if err != nil {
		panic(err)
	}
	pgalintBin = filepath.Join(dir, "pgalint")
	out, err := exec.Command("go", "build", "-o", pgalintBin, ".").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("go build pgalint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// lint runs pgalint in module dir and returns stdout and the exit status.
func lint(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(pgalintBin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stdout.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("pgalint %v in %s: %v\n%s", args, dir, err, &stderr)
	}
	return stdout.String(), 0
}

// TestExitStatus: 0 for a clean module, 1 for findings, 2 for a pattern
// that matches nothing.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		dir  string
		args []string
		want int
	}{
		{fixmod, []string{"./..."}, 0},
		{fixmod, nil, 0},
		{chainmod, []string{"./..."}, 1},
		{fixmod, []string{"./nosuch"}, 2},
	}
	for _, tc := range cases {
		out, got := lint(t, tc.dir, tc.args...)
		if got != tc.want {
			t.Errorf("pgalint %v in %s: exit %d, want %d\n%s", tc.args, tc.dir, got, tc.want, out)
		}
	}
}

// TestPatternEqualsFilteredFullLint: linting one package reports exactly
// the lines a whole-module lint reports for it. chainmod/app's only
// finding is a call chain that leaves the package, so it goes missing if
// the call graph is built from the selected packages alone.
func TestPatternEqualsFilteredFullLint(t *testing.T) {
	full, _ := lint(t, chainmod, "./...")
	for _, pkg := range []string{"app", "jitter"} {
		var want []string
		for _, line := range strings.Split(strings.TrimSpace(full), "\n") {
			if strings.HasPrefix(line, pkg+"/") {
				want = append(want, line)
			}
		}
		if len(want) == 0 {
			t.Fatalf("fixture drifted: the full lint reports nothing in %s:\n%s", pkg, full)
		}
		got, status := lint(t, chainmod, "./"+pkg)
		if status != 1 || strings.TrimSpace(got) != strings.Join(want, "\n") {
			t.Errorf("pgalint ./%s: exit %d, output\n%s\nwant exit 1 and the full lint's lines\n%s",
				pkg, status, got, strings.Join(want, "\n"))
		}
	}
}
