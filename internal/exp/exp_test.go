package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"A01", "A02", "A03", "A04", "A05", "A06", "A07", "A08", "A09",
		"E01", "E02", "E03", "E04", "E05", "E06", "E07",
		"E08", "E09", "E10", "E11", "E12", "E13", "E14", "E15",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Source == "" || all[i].Run == nil {
			t.Fatalf("%s incomplete", id)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E02"); !ok {
		t.Fatal("E02 missing")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// checks it produces non-trivial output without panicking. This is the
// suite's integration test: it exercises engines, islands, farm, cellular,
// HGA, SIM, cluster models and the apps end to end.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, true)
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("%s produced only %d bytes of output", e.ID, len(out))
			}
			if strings.Contains(out, "NaN") {
				t.Fatalf("%s output contains NaN:\n%s", e.ID, out)
			}
		})
	}
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) {
	fprintf(w, "\n=== %s: %s ===\n", e.ID, e.Title)
	fprintf(w, "    reproduces: %s\n\n", e.Source)
}

func TestHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Lookup("E01")
	header(&buf, e)
	if !strings.Contains(buf.String(), "E01") || !strings.Contains(buf.String(), "reproduces") {
		t.Fatalf("header output %q", buf.String())
	}
}

func TestE01ContainsAllLibraries(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Lookup("E01")
	e.Run(&buf, false)
	for _, lib := range []string{"DGENESIS", "GAlib", "GALOPPS", "PGAPack", "POOGAL", "ParadisEO", "pga (this library)"} {
		if !strings.Contains(buf.String(), lib) {
			t.Fatalf("Table 1 missing %s", lib)
		}
	}
}

func TestScale(t *testing.T) {
	if scale(true, 100, 10) != 10 || scale(false, 100, 10) != 100 {
		t.Fatal("scale wrong")
	}
}
