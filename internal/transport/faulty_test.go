package transport

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// recorder is an inner Endpoint that writes down every batch Faulty
// hands it: at which of the driver's operations it arrived, for which
// peer, and which send it came from (the batch's stamp). Two runs'
// records compare byte for byte.
type recorder struct {
	op    int // the driver's operation in progress, set before each call
	log   bytes.Buffer
	sends int64
}

func (r *recorder) Self() int { return 0 }
func (r *recorder) Send(dest int, migrants []*core.Individual) bool {
	fmt.Fprintf(&r.log, "op=%d dst=%d batch=%g\n", r.op, dest, migrants[0].Fitness)
	r.sends++
	return true
}
func (r *recorder) Recv() ([]*core.Individual, bool) { return nil, false }
func (r *recorder) Stats() core.NetStats             { return core.NetStats{Sent: r.sends} }
func (r *recorder) Close() error                     { return nil }

// stamped is a one-migrant batch stamped with the number of its send.
func stamped(i int) []*core.Individual {
	b := testBatch(1, 8)
	b[0].Fitness = float64(i)
	return b
}

// driveFaulty runs a fixed Send/Recv sequence against a fresh Faulty
// over a fresh recorder and returns both.
func driveFaulty(spec FaultSpec, seed uint64, sends int) (*Faulty, *recorder) {
	rec := &recorder{}
	f := NewFaulty(rec, spec, seed)
	for i := 0; i < sends; i++ {
		rec.op = i
		f.Send(1, stamped(i))
		if i%3 == 0 {
			f.Recv()
		}
	}
	_ = f.Close()
	return f, rec
}

// TestFaultySchedulePropertyDeterministic is the schedule property the
// package doc promises: same (seed, spec, operation sequence) → byte-
// identical deliveries to the inner endpoint, at the same operations;
// a different seed diverges.
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
		a, ra := driveFaulty(spec, seed, 100)
		b, rb := driveFaulty(spec, seed, 100)
		if !bytes.Equal(ra.log.Bytes(), rb.log.Bytes()) {
			t.Fatalf("seed %d: deliveries diverge:\n--- a ---\n%s--- b ---\n%s",
				seed, ra.log.Bytes(), rb.log.Bytes())
		}
		sa, sb := a.Stats(), b.Stats()
		if sa != sb {
			t.Fatalf("seed %d: stats diverge: %+v vs %+v", seed, sa, sb)
		}
		if ra.sends == 0 || sa.Dropped == 0 {
			t.Fatalf("seed %d: 100 sends delivered %d and dropped %d; want both", seed, ra.sends, sa.Dropped)
		}
	}
	_, ra := driveFaulty(spec, 1, 100)
	_, rc := driveFaulty(spec, 2, 100)
	if bytes.Equal(ra.log.Bytes(), rc.log.Bytes()) {
		t.Fatal("different seeds delivered identical 100-send records")
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
func TestFaultyPartitionCatchesInFlightDelayedBatch(t *testing.T) {
	spec := FaultSpec{
		Link:       LinkFaults{Jitter: 1}, // every survivor is held ≥1 tick
		MaxDelay:   2,
		Partitions: []Partition{{From: 2, Until: 10, Peers: []int{1}}},
	}
	rec := &recorder{}
	f := NewFaulty(rec, spec, 21)
	// Tick 1: pre-partition send, delayed to tick 2 or 3 — due inside
	// the window. Ticks 2..5: sends into the cut (partition-drop) whose
	// clock advances release the held batch into the partition.
	for i := 0; i < 5; i++ {
		rec.op = i
		f.Send(1, stamped(i))
	}
	if rec.sends != 0 {
		t.Fatalf("delivered through the partition:\n%s", rec.log.Bytes())
	}
	// Nothing is held and nothing was closed, so the tick-1 batch can
	// only have been dropped at its release.
	if f.heldLen != 0 {
		t.Fatalf("%d batches still held at tick 5; the tick-1 batch was due by tick 3", f.heldLen)
	}
	if s := f.Stats(); s.Dropped != 5 {
		t.Fatalf("dropped = %d, want all 5 (1 released into the cut + 4 sent into it)", s.Dropped)
	}
}

// TestFaultyCrashAtDuplicateTickDropsBoth: with DupProb=1 every
// surviving send delivers twice, but a crash scheduled at the same
// logical tick wins — the batch crash-drops before the duplicate roll,
// consuming no randomness, so the post-crash stream (and what reaches
// the inner endpoint) is unperturbed and reproducible.
func TestFaultyCrashAtDuplicateTickDropsBoth(t *testing.T) {
	spec := FaultSpec{
		DupProb: 1,
		Crashes: []Crash{{Peer: 1, At: 2, Until: 3}},
	}
	run := func() (*Faulty, *recorder) {
		rec := &recorder{}
		f := NewFaulty(rec, spec, 5)
		for i := 0; i < 3; i++ { // ticks 1 (live), 2 (crashed), 3 (live again)
			rec.op = i
			f.Send(1, stamped(i))
		}
		return f, rec
	}
	a, ra := run()
	_, rb := run()
	// Ticks 1 and 3 deliver original + duplicate; tick 2 delivers
	// neither copy — the crash outranks the guaranteed duplicate.
	const want = "op=0 dst=1 batch=0\nop=0 dst=1 batch=0\nop=2 dst=1 batch=2\nop=2 dst=1 batch=2\n"
	if got := ra.log.String(); got != want || rb.log.String() != want {
		t.Fatalf("deliveries:\n--- a ---\n%s--- b ---\n%s--- want ---\n%s", got, rb.log.Bytes(), want)
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

// stamp writes send i's values into batch: migrant j carries fitness
// 10i+j and a bit pattern that is a function of (i, j).
func stamp(batch []*core.Individual, i int) {
	for j, ind := range batch {
		g := ind.Genome.(*genome.BitString)
		for b := 0; b < g.N; b++ {
			g.Set(b, (i*31+j*7+b)%3 == 0)
		}
		ind.Fitness, ind.Evaluated = float64(10*i+j), true
	}
}

// stampOf returns the send a received batch says it is, or -1 when the
// batch is not, value for value, a batch stamp wrote.
func stampOf(batch []*core.Individual, size int) int {
	if len(batch) != size {
		return -1
	}
	i := int(batch[0].Fitness) / 10
	want := testBatch(size, batch[0].Genome.Len())
	stamp(want, i)
	for j, ind := range batch {
		g, ok := ind.Genome.(*genome.BitString)
		w := want[j].Genome.(*genome.BitString)
		if !ok || ind.Fitness != want[j].Fitness || !ind.Evaluated || g.N != w.N || !slices.Equal(g.Words, w.Words) {
			return -1
		}
	}
	return i
}

// TestFaultyHoldsBorrowContract drives random fault schedules — drop,
// jitter delay, duplicate, reorder, partition and crash — over Loopback
// with a sender that overwrites its one batch after every Send, as an
// island that lends its own members does. Every batch that arrives must
// equal, value for value, the batch sent at that point; no send arrives
// more than twice (original and duplicate) or after the one that
// overtook it by more than MaxDelay ticks; and the accounting closes at
// both layers: the inner endpoint's Sent = Delivered + Dropped, and the
// wrapper's offers are its drops plus the originals it forwarded, which
// is what arrived less the duplicates.
func TestFaultyHoldsBorrowContract(t *testing.T) {
	pick := func(r *rng.Source, xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		spec := FaultSpec{
			Link:        LinkFaults{LossProb: pick(r, 0, 0.2), Jitter: pick(r, 0, 1)},
			MaxDelay:    1 + r.Intn(4),
			DupProb:     pick(r, 0, 0.5),
			ReorderProb: pick(r, 0, 0.5),
		}
		if r.Chance(0.5) {
			from := uint64(r.Intn(100))
			spec.Partitions = []Partition{{From: from, Until: from + uint64(r.Intn(50)), Peers: []int{1}}}
		}
		if r.Chance(0.5) {
			at := uint64(r.Intn(100))
			spec.Crashes = []Crash{{Peer: r.Intn(2), At: at, Until: at + uint64(r.Intn(50))}}
		}
		const sends = 150
		size := 1 + r.Intn(4)
		eps := NewLoopback(2, 4*sends) // the receiver never refuses
		f := NewFaulty(eps[0], spec, seed)
		batch := testBatch(size, 1+r.Intn(130))
		arrived := make([]int, sends)
		drain := func(now int) {
			for {
				got, ok := eps[1].Recv()
				if !ok {
					return
				}
				i := stampOf(got, size)
				if i < 0 || i > now || now-i > spec.MaxDelay+1 {
					t.Fatalf("seed %d, send %d: received a batch that is no send's (stamp %d): %v", seed, now, i, got)
				}
				arrived[i]++
			}
		}
		for i := 0; i < sends; i++ {
			stamp(batch, i)
			f.Send(1, batch)
			stamp(batch, -1) // the sender's members move on at once
			if r.Chance(0.3) {
				f.Recv()
			}
			drain(i)
		}
		_ = f.Close()
		drain(sends)

		received, dups := 0, 0
		for i, n := range arrived {
			if n > 2 {
				t.Fatalf("seed %d: send %d arrived %d times", seed, i, n)
			}
			received += n
			dups += max(n-1, 0)
		}
		inner, outer := eps[0].Stats(), f.Stats()
		if inner.Sent != inner.Delivered+inner.Dropped || inner.Dropped != 0 || inner.Delivered != int64(received) {
			t.Fatalf("seed %d: inner %+v, %d received", seed, inner, received)
		}
		if forwarded := outer.Delivered - int64(dups); outer.Sent != forwarded+outer.Dropped {
			t.Fatalf("seed %d: %d offers ≠ %d forwarded + %d dropped (%+v)", seed, outer.Sent, forwarded, outer.Dropped, outer)
		}
	}
}
