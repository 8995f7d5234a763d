package sim

import (
	"fmt"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// TestMigrationNeverAliases: migrate copies emigrants into a reused
// outbox and crosses them into reused children, then copies all three
// into the members they displace, which is correct only while nothing
// shares gene storage: no two slots of the islands, in one island or
// across islands, and none of them with the archive's items, the outbox
// or the children. Every archived item must also still carry its own
// genome's objectives, so no later write reached an archived buffer.
// Checked after every generation of every migrating scenario.
func TestMigrationNeverAliases(t *testing.T) {
	for _, s := range []Scenario{S3, S5, S6, S7} {
		st := newScenario(Config{Problem: ZDT1{Dim: 6}, Scenario: s, DemeSize: 8, MigrationInterval: 1, ArchiveCap: 6})
		for g := 1; g <= 25; g++ {
			st.Step(g)
			if msg := sharedStorage(st); msg != "" {
				t.Fatalf("%v, generation %d: %s", s, g, msg)
			}
			objs := make([]float64, 2)
			for k, it := range st.archive.Items() {
				st.scalars[0].mo.Objectives(it.Genome, objs)
				if !slices.Equal(objs, it.Objectives) {
					t.Fatalf("%v, generation %d: archive item %d holds %v, its genome scores %v", s, g, k, it.Objectives, objs)
				}
			}
		}
	}
}

// sharedStorage describes the first genome, over the islands' slots,
// the archive, the outbox and the children, whose individual or gene
// storage an earlier one holds, or returns "".
func sharedStorage(st *scenarioStepper) string {
	inds := map[*core.Individual]bool{}
	genes := map[*float64]string{}
	add := func(g core.Genome, where string) string {
		p := &g.(*genome.RealVector).Genes[0]
		if prev, ok := genes[p]; ok {
			return fmt.Sprintf("%s shares gene storage with %s", where, prev)
		}
		genes[p] = where
		return ""
	}
	for d, e := range st.engines {
		for i, ind := range e.Population().Members {
			where := fmt.Sprintf("island %d slot %d", d, i)
			if inds[ind] {
				return where + " holds an individual an earlier slot holds"
			}
			inds[ind] = true
			if msg := add(ind.Genome, where); msg != "" {
				return msg
			}
		}
	}
	for k, it := range st.archive.Items() {
		if msg := add(it.Genome, fmt.Sprintf("archive item %d", k)); msg != "" {
			return msg
		}
	}
	for k, m := range st.outbox {
		if msg := add(m.g, fmt.Sprintf("outbox entry %d", k)); msg != "" {
			return msg
		}
	}
	for k, c := range []core.Genome{st.c1, st.c2} {
		if msg := add(c, fmt.Sprintf("child %d", k+1)); msg != "" {
			return msg
		}
	}
	return ""
}

// TestArchiveKeepsNoCallerBuffer: Add copies the genome and the objective
// vector it is given, so a caller that rewrites both for its next
// evaluation, as every island's problem does, leaves the archive as it
// was. Covered on each of Add's three ways in: a plain insert, an insert
// that evicts dominated items and a crowding replacement.
func TestArchiveKeepsNoCallerBuffer(t *testing.T) {
	a := NewArchive(3)
	g := genome.RandomRealVector(4, 0, 1, rng.New(1))
	objs := make([]float64, 2)
	want := map[float64]float64{}
	add := func(f1, f2 float64) {
		copy(objs, []float64{f1, f2})
		g.Genes[0] = f1
		if !a.Add(g, objs) {
			t.Fatalf("(%g, %g) was refused", f1, f2)
		}
		want[f1] = f2
		objs[0], objs[1], g.Genes[0] = -1, -1, -1 // the caller's next evaluation
		for _, it := range a.Items() {
			f1 := it.Objectives[0]
			if f2, ok := want[f1]; !ok || it.Objectives[1] != f2 || it.Genome.(*genome.RealVector).Genes[0] != f1 {
				t.Fatalf("archive item %v (gene %v) is not one that was added", it.Objectives, it.Genome)
			}
		}
	}
	add(0.5, 0.5)
	add(0.2, 0.8)
	add(0.8, 0.2)
	add(0.4, 0.4)  // dominates (0.5, 0.5): evicts it
	add(0.1, 0.85) // full: crowds out its nearest, (0.2, 0.8)
	if a.Len() != 3 {
		t.Fatalf("archive holds %d items, want 3", a.Len())
	}
}
