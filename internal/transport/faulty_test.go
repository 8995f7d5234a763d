package transport

import (
	"bytes"
	"testing"

	"pga/internal/rng"
)

// driveFaulty runs a fixed Send/Recv sequence against a fresh Faulty
// over a fresh Loopback pair and returns the wrapper.
func driveFaulty(spec FaultSpec, seed uint64, sends int) *Faulty {
	eps := NewLoopback(2, 64)
	f := NewFaulty(eps[0], spec, seed)
	for i := 0; i < sends; i++ {
		f.Send(1, testBatch(1, 8))
		if i%3 == 0 {
			f.Recv()
		}
	}
	_ = f.Close()
	return f
}

// TestFaultySchedulePropertyDeterministic is the schedule property the
// package doc promises: same (seed, spec, operation sequence) → a
// byte-identical fault schedule; a different seed diverges.
func TestFaultySchedulePropertyDeterministic(t *testing.T) {
	spec := FaultSpec{
		Link:        LinkFaults{LossProb: 0.2, Jitter: 0.05},
		MaxDelay:    4,
		DupProb:     0.15,
		ReorderProb: 0.1,
		Partitions:  []Partition{{From: 20, Until: 35, Peers: []int{1}}},
		Crashes:     []Crash{{Peer: 1, At: 50, Until: 60}},
	}
	for _, seed := range []uint64{1, 7, 12345} {
		a := driveFaulty(spec, seed, 100)
		b := driveFaulty(spec, seed, 100)
		if !bytes.Equal(a.Schedule(), b.Schedule()) {
			t.Fatalf("seed %d: schedules diverge:\n--- a ---\n%s--- b ---\n%s",
				seed, a.Schedule(), b.Schedule())
		}
		if len(a.Schedule()) == 0 {
			t.Fatalf("seed %d: no fault events recorded over 100 sends", seed)
		}
		sa, sb := a.Stats(), b.Stats()
		if sa != sb {
			t.Fatalf("seed %d: stats diverge: %+v vs %+v", seed, sa, sb)
		}
	}
	a := driveFaulty(spec, 1, 100)
	c := driveFaulty(spec, 2, 100)
	if bytes.Equal(a.Schedule(), c.Schedule()) {
		t.Fatal("different seeds produced identical 100-send schedules")
	}
}

func TestFaultyZeroSpecIsTransparent(t *testing.T) {
	eps := NewLoopback(2, 8)
	f := NewFaulty(eps[0], FaultSpec{}, 1)
	for i := 0; i < 5; i++ {
		if !f.Send(1, testBatch(1, 8)) {
			t.Fatalf("send %d refused under zero fault spec", i)
		}
	}
	got := 0
	for {
		if _, ok := eps[1].Recv(); !ok {
			break
		}
		got++
	}
	if got != 5 {
		t.Fatalf("delivered %d of 5 batches", got)
	}
	if len(f.Schedule()) == 0 {
		t.Fatal("transparent wrapper should still log deliveries")
	}
	if s := f.Stats(); s.Sent != 5 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyPartitionWindowDropsDeterministically(t *testing.T) {
	spec := FaultSpec{Partitions: []Partition{{From: 3, Until: 6, Peers: []int{1}}}}
	eps := NewLoopback(2, 64)
	f := NewFaulty(eps[0], spec, 9)
	var results []bool
	for i := 0; i < 8; i++ {
		results = append(results, f.Send(1, testBatch(1, 8)))
	}
	// Ticks 1..8; the [3,6) window must drop sends 3, 4 and 5 exactly.
	want := []bool{true, true, false, false, false, true, true, true}
	for i, ok := range results {
		if ok != want[i] {
			t.Fatalf("send at tick %d: delivered=%v, want %v (results %v)", i+1, ok, want[i], results)
		}
	}
	if s := f.Stats(); s.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped)
	}
}

func TestFaultyCrashWindowDropsBothDirections(t *testing.T) {
	// Crash of the wrapped endpoint itself: everything it sends dies.
	specSelf := FaultSpec{Crashes: []Crash{{Peer: 0, At: 1, Until: 3}}}
	eps := NewLoopback(2, 8)
	f := NewFaulty(eps[0], specSelf, 1)
	if f.Send(1, testBatch(1, 8)) {
		t.Fatal("send from crashed self delivered")
	}
	if f.Send(1, testBatch(1, 8)) {
		t.Fatal("send from crashed self delivered at tick 2")
	}
	if !f.Send(1, testBatch(1, 8)) {
		t.Fatal("send after crash window refused")
	}

	// Crash of the destination: sends to it die, others pass.
	specPeer := FaultSpec{Crashes: []Crash{{Peer: 1, At: 0, Until: 0}}}
	eps3 := NewLoopback(3, 8)
	g := NewFaulty(eps3[0], specPeer, 1)
	if g.Send(1, testBatch(1, 8)) {
		t.Fatal("send to permanently crashed peer delivered")
	}
	if !g.Send(2, testBatch(1, 8)) {
		t.Fatal("send to live peer refused")
	}
}

func TestFaultyDuplicateDeliversClones(t *testing.T) {
	spec := FaultSpec{DupProb: 1}
	eps := NewLoopback(2, 8)
	f := NewFaulty(eps[0], spec, 1)
	if !f.Send(1, testBatch(1, 8)) {
		t.Fatal("send refused")
	}
	first, ok1 := eps[1].Recv()
	second, ok2 := eps[1].Recv()
	if !ok1 || !ok2 {
		t.Fatalf("want two deliveries, got %v %v", ok1, ok2)
	}
	if first[0] == second[0] || first[0].Genome == second[0].Genome {
		t.Fatal("duplicate delivery aliases the original batch")
	}
}

// TestFaultyPartitionCatchesInFlightDelayedBatch: a batch delayed into
// a partition window must die at release time (release-drop), not slip
// through because its fate was rolled before the cut opened — the
// analogue of a reconnect attempt in flight when the partition lands.
// The whole interaction must be byte-reproducible.
func TestFaultyPartitionCatchesInFlightDelayedBatch(t *testing.T) {
	spec := FaultSpec{
		Link:       LinkFaults{Jitter: 1}, // every survivor is held ≥1 tick
		MaxDelay:   2,
		Partitions: []Partition{{From: 2, Until: 10, Peers: []int{1}}},
	}
	run := func() (*Faulty, int) {
		eps := NewLoopback(2, 64)
		f := NewFaulty(eps[0], spec, 21)
		// Tick 1: pre-partition send, delayed to tick 2 or 3 — due inside
		// the window. Ticks 2..5: sends into the cut (partition-drop) whose
		// clock advances release the held batch into the partition.
		for i := 0; i < 5; i++ {
			f.Send(1, testBatch(1, 8))
		}
		got := 0
		for {
			if _, ok := eps[1].Recv(); !ok {
				break
			}
			got++
		}
		return f, got
	}
	a, gotA := run()
	b, gotB := run()
	if !bytes.Equal(a.Schedule(), b.Schedule()) {
		t.Fatalf("schedules diverge:\n--- a ---\n%s--- b ---\n%s", a.Schedule(), b.Schedule())
	}
	if gotA != 0 || gotB != 0 {
		t.Fatalf("delivered %d/%d batches through the partition, want 0", gotA, gotB)
	}
	if !bytes.Contains(a.Schedule(), []byte("release-drop")) {
		t.Fatalf("delayed batch was not release-dropped in the partition:\n%s", a.Schedule())
	}
	if s := a.Stats(); s.Dropped != 5 {
		t.Fatalf("dropped = %d, want all 5 (1 released into the cut + 4 sent into it)", s.Dropped)
	}
}

// TestFaultyCrashAtDuplicateTickDropsBoth: with DupProb=1 every
// surviving send delivers twice, but a crash scheduled at the same
// logical tick wins — the batch crash-drops before the duplicate roll,
// consuming no randomness, so the post-crash stream (and the schedule
// bytes) are unperturbed and reproducible.
func TestFaultyCrashAtDuplicateTickDropsBoth(t *testing.T) {
	spec := FaultSpec{
		DupProb: 1,
		Crashes: []Crash{{Peer: 1, At: 2, Until: 3}},
	}
	run := func() (*Faulty, int) {
		eps := NewLoopback(2, 64)
		f := NewFaulty(eps[0], spec, 5)
		for i := 0; i < 3; i++ { // ticks 1 (live), 2 (crashed), 3 (live again)
			f.Send(1, testBatch(1, 8))
		}
		got := 0
		for {
			if _, ok := eps[1].Recv(); !ok {
				break
			}
			got++
		}
		return f, got
	}
	a, gotA := run()
	b, gotB := run()
	if !bytes.Equal(a.Schedule(), b.Schedule()) {
		t.Fatalf("schedules diverge:\n--- a ---\n%s--- b ---\n%s", a.Schedule(), b.Schedule())
	}
	// Ticks 1 and 3 deliver original + duplicate; tick 2 delivers
	// neither copy — the crash outranks the guaranteed duplicate.
	if gotA != 4 || gotB != 4 {
		t.Fatalf("delivered %d/%d batches, want 4 (2 doubled sends, crashed tick drops both copies)", gotA, gotB)
	}
	if n := bytes.Count(a.Schedule(), []byte("crash-drop")); n != 1 {
		t.Fatalf("crash-drop events = %d, want exactly 1:\n%s", n, a.Schedule())
	}
	if s := a.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the injected duplicate of a dropped batch is never counted)", s.Dropped)
	}
}

func TestFaultyDelayHoldsUntilDue(t *testing.T) {
	spec := FaultSpec{Link: LinkFaults{Jitter: 1}, MaxDelay: 2}
	eps := NewLoopback(2, 64)
	f := NewFaulty(eps[0], spec, 3)
	delivered := func() int {
		n := 0
		for {
			if _, ok := eps[1].Recv(); !ok {
				return n
			}
			n++
		}
	}
	total := 0
	for i := 0; i < 10; i++ {
		f.Send(1, testBatch(1, 8))
		total += delivered()
	}
	// With Jitter > 0 every surviving batch is held ≥1 tick, so the
	// last sends are still in flight — but earlier ones must have been
	// released as their due ticks passed.
	if total == 0 {
		t.Fatal("no delayed batch was ever released")
	}
	if total >= 10 {
		t.Fatalf("delivered %d of 10 with mandatory delay — nothing was held", total)
	}
	before := f.Stats().Dropped
	_ = f.Close()
	if after := f.Stats().Dropped; after-before != int64(10-total) {
		t.Fatalf("close accounted %d held batches as dropped, want %d", after-before, 10-total)
	}
}

// TestLinkFaultsRoll pins the link model's draw contract directly: the
// same seed replays the same (drop, jitter) fates, jitter stays inside
// [0, Jitter), and a lossless, jitterless link draws nothing at all.
func TestLinkFaultsRoll(t *testing.T) {
	f := LinkFaults{LossProb: 0.01, Jitter: 10e-3}
	a, b := rng.New(77), rng.New(77)
	drops, delayed := 0, 0
	for i := 0; i < 200; i++ {
		dropA, jitA := f.Roll(a)
		dropB, jitB := f.Roll(b)
		if dropA != dropB || jitA != jitB {
			t.Fatalf("roll %d diverged: (%v,%g) vs (%v,%g)", i, dropA, jitA, dropB, jitB)
		}
		if jitA < 0 || jitA >= f.Jitter {
			t.Fatalf("roll %d jitter %g outside [0,%g)", i, jitA, f.Jitter)
		}
		if dropA {
			drops++
		} else if jitA > 0 {
			delayed++
		}
	}
	if drops == 0 || delayed == 0 {
		t.Fatalf("200 rolls exercised drops=%d delayed=%d, want both", drops, delayed)
	}

	r := rng.New(5)
	before := r.State()
	if drop, jitter := (LinkFaults{}).Roll(r); drop || jitter != 0 {
		t.Fatalf("zero link misbehaved: drop=%v jitter=%g", drop, jitter)
	}
	if r.State() != before {
		t.Fatal("a lossless, jitterless link consumed a draw")
	}
}
