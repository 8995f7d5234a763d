package spec

import "testing"

// TestTraceStart pins where each way of running a model starts its
// trace: generation 0, the initial population, or no trace at all (-1,
// the free-running islands, which have no run-level generation). It also
// pins which runtimes report a population mean: p2p, hga and sim report
// 0. sim has no recorded trace, so nothing else pins its.
func TestTraceStart(t *testing.T) {
	first := map[string]int{
		ModelGenerational:               0,
		ModelSteadyState:                0,
		ModelParallel:                   0,
		ModelMasterSlave:                0,
		ModelCellular:                   0,
		ModelIslands:                    0,
		ModelIslands + "/sync-parallel": 0,
		ModelIslands + "/supervised":    0,
		ModelIslands + "/async":         -1,
		ModelP2P:                        0,
		ModelHGA:                        0,
		ModelSIM:                        0,
	}
	noMean := map[string]bool{ModelP2P: true, ModelHGA: true, ModelSIM: true}
	for _, c := range controlCases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := first[c.name]
			if !ok {
				t.Fatalf("no expected trace start for %s", c.name)
			}
			b, err := Build(*mustParse(t, c.doc))
			if err != nil {
				t.Fatal(err)
			}
			var opts RunOpts
			opts.Trace = true
			rep := b.Run(opts)
			if want < 0 {
				if len(rep.Trace) != 0 {
					t.Fatalf("trace has %d points, want none", len(rep.Trace))
				}
				return
			}
			if len(rep.Trace) == 0 {
				t.Fatal("empty trace")
			}
			if got := rep.Trace[0].Generation; got != want {
				t.Errorf("trace starts at generation %d, want %d", got, want)
			}
			if last := rep.Trace[len(rep.Trace)-1]; last.Generation != rep.Generations || last.Evaluations != rep.Evaluations {
				t.Errorf("trace ends at (%d gens, %d evals), report says (%d, %d)",
					last.Generation, last.Evaluations, rep.Generations, rep.Evaluations)
			}
			for _, p := range rep.Trace {
				if (p.Mean == 0) != noMean[rep.Model] {
					t.Fatalf("generation %d has mean %v; want a zero mean exactly for p2p, hga and sim", p.Generation, p.Mean)
				}
			}
		})
	}
}
