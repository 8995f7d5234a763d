package island

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
	"pga/internal/transport"
)

// TestRunWireOverLoopback drives the wire-mode runner in-process: one
// RunWire goroutine per island over shared Loopback endpoints — the
// same code path cmd/pgaisland runs over TCP, minus the sockets.
func TestRunWireOverLoopback(t *testing.T) {
	const n = 4
	eps := transport.NewLoopback(n, 16)
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			er, mr := WireStreams(11, n, i)
			results[i] = RunWire(WireConfig{
				Self:     i,
				Topology: topology.Ring(n),
				Endpoint: eps[i],
				Policy:   migration.Policy{Interval: 5, Count: 2},
				Engine:   onemaxEngines(64, 30)(i, er),
				MigRNG:   mr,
				MaxGens:  400,
			})
		}(i)
	}
	wg.Wait()

	var migrations int64
	for i, res := range results {
		if !res.Solved {
			t.Errorf("island %d failed onemax: best=%g after %d gens", i, res.BestFitness, res.Generations)
		}
		if len(res.PerDemeBest) != 1 {
			t.Errorf("island %d PerDemeBest = %v, want its own single entry", i, res.PerDemeBest)
		}
		migrations += res.Migrations
		if res.Net.Sent == 0 {
			t.Errorf("island %d never offered a batch to the wire", i)
		}
	}
	if migrations == 0 {
		t.Fatal("no migration was delivered across the ring")
	}
}

// TestRunWireSoloWhenAllPeersLost: an island whose every peer is dead
// keeps evolving alone — graceful degradation, not deadlock.
func TestRunWireSoloWhenAllPeersLost(t *testing.T) {
	const n = 3
	eps := transport.NewLoopback(n, 4)
	// Faulty scripts both peers crashed from tick 0, forever.
	spec := transport.FaultSpec{Crashes: []transport.Crash{
		{Peer: 1, At: 0, Until: 0},
		{Peer: 2, At: 0, Until: 0},
	}}
	er, mr := WireStreams(3, n, 0)
	res := RunWire(WireConfig{
		Self:     0,
		Topology: topology.Complete(n),
		Endpoint: transport.NewFaulty(eps[0], spec, 5),
		Policy:   migration.Policy{Interval: 3, Count: 1},
		Engine:   onemaxEngines(48, 25)(0, er),
		MigRNG:   mr,
		MaxGens:  600,
	})
	if !res.Solved {
		t.Fatalf("solo island failed onemax: best=%g", res.BestFitness)
	}
	if res.Net.Dropped == 0 || res.DeadLettered == 0 {
		t.Fatalf("crashed-peer traffic not dead-lettered: %+v", res.Net)
	}
}

// TestWireStreamsMatchInProcessSplit pins the cross-process determinism
// contract: WireStreams must hand island i exactly the engine and
// migration streams the in-process model's New gives deme i — which also
// pins that New splits the restart stream after every deme's pair — and
// the streams must be distinct across islands.
func TestWireStreamsMatchInProcessSplit(t *testing.T) {
	const n, seed = 4, 42
	// New hands engineRNGs[i] to NewEngine, which draws the initial
	// population from it: capture each stream's state on the way in.
	engineStates := make([][5]uint64, n)
	m := New(Config{
		Topology: topology.Ring(n),
		Seed:     seed,
		NewEngine: func(i int, r *rng.Source) ga.Engine {
			engineStates[i] = r.State()
			return onemaxEngines(16, 8)(i, r)
		},
	})
	seen := map[uint64]int{}
	for i := 0; i < n; i++ {
		e, mig := WireStreams(seed, n, i)
		if e.State() != engineStates[i] {
			t.Errorf("island %d: engine stream differs from the in-process deme's", i)
		}
		if mig.State() != m.migRNGs[i].State() {
			t.Errorf("island %d: migration stream differs from the in-process deme's", i)
		}
		// Distinctness across islands (a first-draw collision would mean a
		// shared stream — the bug the stream-per-goroutine rule exists for).
		for name, v := range map[string]uint64{"engine": e.Uint64(), "migration": mig.Uint64()} {
			if j, dup := seen[v]; dup {
				t.Fatalf("island %d %s stream collides with stream %d", i, name, j)
			}
			seen[v] = i
		}
	}
	master := rng.New(seed)
	newDemeStreams(master, n)
	if m.restartRNG.State() != master.Split().State() {
		t.Error("restart stream is not the split after every deme's pair")
	}
	for _, self := range []int{-1, n} {
		if e, mig := WireStreams(seed, n, self); e != nil || mig != nil {
			t.Errorf("WireStreams(self=%d) returned streams for an island outside [0, %d)", self, n)
		}
	}
}

// TestSoloWireMatchesSequential ties wire accounting to in-process
// accounting: one island with no links, run through RunWire on the
// streams WireStreams hands it, must report the trace, evaluation and
// generation counts and best fitness of the one-deme sequential model
// under the same seed, solve point included: both run to their
// generation budget, whether or not they solve on the way.
func TestSoloWireMatchesSequential(t *testing.T) {
	const seed, gens = 17, 40
	newEngine := enginesFor(problems.OneMax{N: 48}, 20)
	policy := migration.Policy{Interval: 4, Count: 2}

	var wantTrace, gotTrace []core.Status
	want := New(Config{
		Topology: topology.Isolated(1), Policy: policy, NewEngine: newEngine, Seed: seed,
	}).RunSequential(core.MaxGenerations(gens), recordStatuses(&wantTrace))

	er, mr := WireStreams(seed, 1, 0)
	got := RunWire(WireConfig{
		Self:      0,
		Topology:  topology.Isolated(1),
		Endpoint:  transport.NewLoopback(1, 1)[0],
		Policy:    policy,
		Engine:    newEngine(0, er),
		MigRNG:    mr,
		MaxGens:   gens,
		Observers: recordStatuses(&gotTrace).Observers,
	})
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Errorf("trace differs:\n wire %v\n seq  %v", gotTrace, wantTrace)
	}
	if got.Evaluations != want.Evaluations || got.Generations != want.Generations || got.BestFitness != want.BestFitness ||
		got.Solved != want.Solved || got.SolvedAtGen != want.SolvedAtGen || got.SolvedAtEval != want.SolvedAtEval {
		t.Errorf("wire %+v, sequential %+v", got.RunStats, want.RunStats)
	}
	if got.Generations != gens || len(gotTrace) != gens+1 {
		t.Errorf("run did not use its budget: gens=%d trace=%d", got.Generations, len(gotTrace))
	}
}

// TestRunWireValidation: every malformed WireConfig is refused with a
// panic that names the offending field.
func TestRunWireValidation(t *testing.T) {
	valid := func() WireConfig {
		er, mr := WireStreams(1, 2, 0)
		return WireConfig{
			Topology: topology.Ring(2),
			Endpoint: transport.NewLoopback(2, 1)[0],
			Engine:   onemaxEngines(8, 4)(0, er),
			MigRNG:   mr,
			MaxGens:  1,
		}
	}
	cases := []struct {
		field  string
		mutate func(*WireConfig)
	}{
		{"Topology", func(c *WireConfig) { c.Topology = nil }},
		{"Endpoint", func(c *WireConfig) { c.Endpoint = nil }},
		{"Engine", func(c *WireConfig) { c.Engine = nil }},
		{"MigRNG", func(c *WireConfig) { c.MigRNG = nil }},
		{"Self", func(c *WireConfig) { c.Self = 5 }},
		{"Self", func(c *WireConfig) { c.Self = -1 }},
	}
	for _, tc := range cases {
		cfg := valid()
		tc.mutate(&cfg)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "island: WireConfig."+tc.field+" ") {
					t.Errorf("bad %s: panic %q does not name the field", tc.field, msg)
				}
			}()
			RunWire(cfg)
		}()
	}
	RunWire(valid()) // the unbroken config runs
}

// TestRunWireRefusesMismatchedGenomes: two wire islands whose problems
// differ in size (OneMax on 64 and 65 bits) exchange well-formed batches
// neither can integrate. Each refuses and counts every batch it receives
// and runs to its generation cap, where integrating them panicked in
// the next copy-in or crossover; the refusals stay out of the
// transport's drop count, so batch conservation still sums.
func TestRunWireRefusesMismatchedGenomes(t *testing.T) {
	const n = 2
	eps := transport.NewLoopback(n, 16)
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i, bits := range []int{64, 65} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			er, mr := WireStreams(7, n, i)
			results[i] = RunWire(WireConfig{
				Self:     i,
				Topology: topology.Ring(n),
				Endpoint: eps[i],
				Policy:   migration.Policy{Interval: 2, Count: 2},
				Engine:   onemaxEngines(bits, 20)(i, er),
				MigRNG:   mr,
				MaxGens:  60,
			})
		}()
	}
	wg.Wait()
	var net core.NetStats
	var refused int64
	for i, res := range results {
		if res.Generations != 60 {
			t.Errorf("island %d stopped at generation %d of 60", i, res.Generations)
		}
		if res.Refused != res.Net.Received {
			t.Errorf("island %d refused %d of %d received batches, want all of them", i, res.Refused, res.Net.Received)
		}
		refused += res.Refused
		net.Add(res.Net)
	}
	// An island may finish before its peer sends anything, but not both:
	// the later one drains what the earlier one left in its inbox.
	if refused == 0 {
		t.Error("no batch was refused")
	}
	if net.Sent != net.Delivered+net.Dropped {
		t.Errorf("sent %d != delivered %d + dropped %d", net.Sent, net.Delivered, net.Dropped)
	}
}
