package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const smoke = "../../examples/sweeps/smoke.json"

// buildPgarun builds the binary under test into dir.
func buildPgarun(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pgarun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build pgarun: %v\n%s", err, out)
	}
	return bin
}

// TestIgnoredFlagsAreRefused: a flag that would be silently ignored — a
// model flag next to -config, -out without it — exits 2 with the flag
// named, as does a document whose replicates multiply past the run cap
// (under -validate too). -list still lists whatever else is set.
func TestIgnoredFlagsAreRefused(t *testing.T) {
	dir := t.TempDir()
	bin := buildPgarun(t, dir)
	flood := filepath.Join(dir, "flood.json")
	doc := `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[4,6]},"replicates":20000000}`
	if err := os.WriteFile(flood, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-config", smoke, "-seed", "7"}, "-seed"},
		{[]string{"-config", smoke, "-gens", "5", "-quiet"}, "-gens"},
		{[]string{"-out", filepath.Join(dir, "x.json")}, "-out"},
		{[]string{"-config", flood, "-validate"}, "replicates"},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2; stderr: %s", tc.args, err, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not name %q: %s", tc.args, tc.want, &stderr)
		}
	}
	if out, err := exec.Command(bin, "-config", smoke, "-list").Output(); err != nil || !strings.Contains(string(out), "onemax") {
		t.Errorf("-config X -list: err %v, output %q; want the problem list", err, out)
	}
}

// TestProfilingSwitchesChangeNothing: -cpuprofile and -trace write their
// files, complete, and the result file is byte-identical with and without
// them — for a flag run's stdout too. Without them it is byte-identical
// to the document's recorded result, which ties -out's encoding to the
// files internal/spec's TestRecordedResults replays.
func TestProfilingSwitchesChangeNothing(t *testing.T) {
	dir := t.TempDir()
	bin := buildPgarun(t, dir)
	path := func(name string) string { return filepath.Join(dir, name) }
	run := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out
	}
	const sweep = "../../examples/sweeps/kpointbits.json"
	run("-config", sweep, "-quiet", "-out", path("plain.json"))
	run("-config", sweep, "-quiet", "-out", path("profiled.json"), "-cpuprofile", path("cpu.pprof"), "-trace", path("exec.trace"))
	plain, err := os.ReadFile(path("plain.json"))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := os.ReadFile(path("profiled.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, profiled) {
		t.Error("-config: the result file differs under -cpuprofile -trace")
	}
	if recorded, err := os.ReadFile("../../examples/sweeps/golden/kpointbits.result.json"); err != nil || !bytes.Equal(plain, recorded) {
		t.Errorf("-config: the result file differs from the recorded result (err %v)", err)
	}
	// A CPU profile is a gzip stream, written when the profile is stopped;
	// an execution trace opens with its version line.
	for file, magic := range map[string]string{"cpu.pprof": "\x1f\x8b", "exec.trace": "go 1."} {
		data, err := os.ReadFile(path(file))
		if err != nil || !bytes.HasPrefix(data, []byte(magic)) {
			t.Errorf("%s: err %v, %d bytes, want a file starting %q", file, err, len(data), magic)
		}
	}
	flags := []string{"-model", "steadystate", "-problem", "onemax", "-size", "32", "-gens", "40"}
	if a, b := run(flags...), run(append(flags, "-cpuprofile", path("flags.pprof"))...); !bytes.Equal(a, b) {
		t.Errorf("flag run: stdout differs under -cpuprofile:\n%s\n%s", a, b)
	}
}

// TestInterruptWritesPartialResults: SIGINT cancels the run instead of
// killing the process. A single run still prints its report, stopped
// "cancelled"; a sweep still writes the runs that finished to -out; both
// exit 130.
func TestInterruptWritesPartialResults(t *testing.T) {
	dir := t.TempDir()
	bin := buildPgarun(t, dir)
	exit130 := func(what string, err error, stderr *bytes.Buffer) {
		t.Helper()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
			t.Fatalf("%s: exit = %v, want status 130; stderr: %s", what, err, stderr)
		}
		if !strings.Contains(stderr.String(), "interrupted") {
			t.Errorf("%s: stderr does not say the run was interrupted: %s", what, stderr)
		}
	}

	// A run that cannot end by itself, interrupted at its first progress
	// line — which the default islands model now prints.
	var stderr bytes.Buffer
	cpu := filepath.Join(dir, "interrupted.pprof")
	cmd := exec.Command(bin, "-problem", "nk", "-size", "128", "-gens", "100000000", "-cpuprofile", cpu)
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() || !strings.HasPrefix(lines.Text(), "gen ") {
		t.Fatalf("no progress line from an islands run: %q", lines.Text())
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	exit130("single run", cmd.Wait(), &stderr)
	if out := strings.Join(rest, "\n"); !strings.Contains(out, `stop="cancelled"`) || !strings.Contains(out, "islands: migrations=") {
		t.Errorf("the interrupted run did not print its partial report:\n%s", out)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("the interrupted run left no complete CPU profile: %v", err)
	}

	// A sweep on one worker whose second cell cannot end by itself.
	doc := filepath.Join(dir, "endless.json")
	out := filepath.Join(dir, "out.json")
	sweep := `{"base":{"model":"generational","problem":{"name":"nk","size":128},"engine":{"pop":10},"seed":1},"sweep":{"budget.generations":[5,100000000]}}`
	if err := os.WriteFile(doc, []byte(sweep), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	cmd = exec.Command(bin, "-config", doc, "-out", out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second) // cell 0 is five generations; cell 1 is running
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	exit130("sweep", cmd.Wait(), &stderr)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("the interrupted sweep wrote no result file: %v", err)
	}
	var reports []struct {
		Generations int    `json:"generations"`
		Stop        string `json:"stop"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("result file: %v\n%s", err, data)
	}
	if len(reports) != 1 || reports[0].Generations != 5 || reports[0].Stop != "max generations" {
		t.Errorf("result file holds %+v, want exactly the finished first cell", reports)
	}
}
