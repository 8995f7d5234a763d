package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const smoke = "../../examples/sweeps/smoke.json"

// TestIgnoredFlagsAreRefused: a flag that would be silently ignored — a
// model flag next to -config, -out without it — exits 2 with the flag
// named, as does a document whose replicates multiply past the run cap
// (under -validate too). -list still lists whatever else is set.
func TestIgnoredFlagsAreRefused(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pgarun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build pgarun: %v\n%s", err, out)
	}
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
