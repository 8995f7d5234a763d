package hga

import (
	"fmt"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
)

// sharedStorage describes the first pair of slots, over every population
// given, that hold one individual or share gene storage, or returns "".
func sharedStorage(pops []*core.Population) string {
	inds := map[*core.Individual]bool{}
	genes := map[*float64]bool{}
	for p, pop := range pops {
		for i, ind := range pop.Members {
			g := &ind.Genome.(*genome.RealVector).Genes[0]
			if inds[ind] || genes[g] {
				return fmt.Sprintf("deme %d slot %d shares storage with an earlier slot", p, i)
			}
			inds[ind], genes[g] = true, true
		}
	}
	return ""
}

// TestPromotionNeverAliases: promote copies a migrant into the member it
// displaces, which is correct only while no two slots of the hierarchy,
// in one deme or across layers, share an individual or its genes. Checked
// after every generation of runs that promote every generation and every
// third.
func TestPromotionNeverAliases(t *testing.T) {
	for _, interval := range []int{1, 3} {
		c := cfg(4)
		c.DemeSize = 8
		c.MigrationInterval = interval
		m := New(c)
		st := &hierStepper{m: m}
		pops := make([]*core.Population, len(m.demes))
		for g := 1; g <= 30; g++ {
			st.Step(g)
			for i, e := range m.demes {
				pops[i] = e.Population()
			}
			if s := sharedStorage(pops); s != "" {
				t.Fatalf("interval %d, generation %d: %s", interval, g, s)
			}
		}
	}
}
