package p2p

import (
	"fmt"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
)

// sharedStorage describes the first slot, over every peer's population,
// that holds an individual or gene storage an earlier slot holds, or
// returns "".
func sharedStorage(n *Network) string {
	inds := map[*core.Individual]bool{}
	words := map[*uint64]bool{}
	for p, pr := range n.peers {
		for i, ind := range pr.engine.Population().Members {
			w := &ind.Genome.(*genome.BitString).Words[0]
			if inds[ind] || words[w] {
				return fmt.Sprintf("peer %d slot %d shares storage with an earlier slot", p, i)
			}
			inds[ind], words[w] = true, true
		}
	}
	return ""
}

// TestMigrationNeverAliases: migrate copies a peer's best into the
// member it replaces, which is correct only while no two slots of the
// overlay, in one peer or across peers, share an individual or its
// genes. Checked after every generation of an overlay that gossips and
// migrates every generation, with and without churn.
func TestMigrationNeverAliases(t *testing.T) {
	for _, churn := range []float64{0, 0.1} {
		cfg := baseConfig(3)
		cfg.GossipEvery = 1
		cfg.ChurnRate = churn
		n := New(cfg)
		st := &netStepper{n: n, res: &Result{}}
		for g := 1; g <= 40; g++ {
			st.Step(g)
			if s := sharedStorage(n); s != "" {
				t.Fatalf("churn %g, generation %d: %s", churn, g, s)
			}
		}
		if churn > 0 && st.res.Joins == 0 {
			t.Fatalf("churn %g: no peer rejoined", churn)
		}
	}
}
