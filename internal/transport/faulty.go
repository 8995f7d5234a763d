// Faulty: a deterministic fault-injecting Endpoint wrapper.
//
// Faulty sits between an island and any inner Endpoint (Loopback for
// tests, TCP for multi-process runs) and misbehaves on a schedule that
// is a pure function of (seed, operation sequence): drop, delay,
// duplicate, reorder, partition and peer crash. Time is logical — one
// tick per Send — and every random decision is drawn from a seeded
// rng.Source in a fixed order, so the same seed against the same call
// sequence reproduces the same fault schedule byte-for-byte (the
// property the schedule test asserts). That extends the repository's
// determinism contract to injected *network* faults, the same way
// supervise.FaultPlan extends it to deme crashes and hangs.
//
// The stochastic half of the model (loss + jitter) is LinkFaults, the
// repository's one link-fault model; cmd/pgaisland's -drop/-jitter flags
// fill it in.

package transport

import (
	"fmt"
	"strings"

	"pga/internal/core"
	"pga/internal/rng"
)

// LinkFaults is the stochastic fault model of a lossy link.
type LinkFaults struct {
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// Jitter is the maximum extra uniform random delay per message;
	// Faulty maps it onto logical delay ticks (see FaultSpec.MaxDelay).
	Jitter float64
}

// Roll draws this link's fate for one message from r: whether it is
// dropped and, for survivors, the extra jitter delay in [0, Jitter).
// The draw order — loss first, jitter only for survivors, no draw at
// all when the knob is zero — is part of the determinism contract:
// seeded fault schedules replay bit-identically only while it holds.
func (l LinkFaults) Roll(r *rng.Source) (drop bool, jitter float64) {
	if l.LossProb > 0 && r.Chance(l.LossProb) {
		return true, 0
	}
	if l.Jitter > 0 {
		jitter = r.Float64() * l.Jitter
	}
	return false, jitter
}

// Partition cuts the listed peers off from everyone else during the
// logical-tick window [From, Until): a batch whose sender and receiver
// sit on opposite sides of the cut is dropped. Until 0 means forever.
type Partition struct {
	From, Until uint64
	Peers       []int
}

// active reports whether the partition severs the (a, b) link at tick.
func (p Partition) active(tick uint64, a, b int) bool {
	if tick < p.From || (p.Until != 0 && tick >= p.Until) {
		return false
	}
	return p.contains(a) != p.contains(b)
}

func (p Partition) contains(id int) bool {
	for _, q := range p.Peers {
		if q == id {
			return true
		}
	}
	return false
}

// Crash marks a peer dead during [At, Until): batches to it — or, when
// the wrapped endpoint itself is named, from it — are dropped. Until 0
// means the peer never comes back.
type Crash struct {
	Peer      int
	At, Until uint64
}

// active reports whether the crash holds at tick.
func (c Crash) active(tick uint64) bool {
	return tick >= c.At && (c.Until == 0 || tick < c.Until)
}

// FaultSpec scripts a Faulty wrapper. The zero value injects nothing.
type FaultSpec struct {
	// Link is the stochastic loss/jitter model.
	Link LinkFaults
	// MaxDelay is the maximum hold, in logical ticks, for a
	// jitter-delayed batch; default 3 when Link.Jitter > 0. The
	// continuous jitter draw maps uniformly onto [1, MaxDelay] ticks.
	MaxDelay int
	// DupProb is the probability a surviving batch is delivered twice.
	DupProb float64
	// ReorderProb is the probability an undelayed surviving batch is
	// held one tick — overtaken by the next send.
	ReorderProb float64
	// Partitions are scripted network cuts.
	Partitions []Partition
	// Crashes are scripted peer deaths.
	Crashes []Crash
}

// withDefaults returns a copy of s with defaults applied.
func (s FaultSpec) withDefaults() FaultSpec {
	if s.MaxDelay <= 0 {
		s.MaxDelay = 3
	}
	return s
}

// heldBatch is a delayed batch awaiting release. Insertion order is
// positional in Faulty.held, which breaks due ties deterministically.
type heldBatch struct {
	due      uint64
	dest     int
	migrants []*core.Individual
	dup      bool
}

// Faulty wraps an inner Endpoint with deterministic fault injection.
// Like every Endpoint it is owned by a single island goroutine;
// Schedule and Stats are for after the run.
type Faulty struct {
	inner Endpoint
	spec  FaultSpec
	r     *rng.Source

	tick uint64
	seq  uint64
	// held is a fixed-capacity queue allocated once at construction: each
	// logical tick holds at most one new batch and releaseDue drains
	// everything due at the top of every Send, so at most MaxDelay batches
	// survive a release plus the one this tick may add. heldLen is the
	// live prefix; slots beyond it are zeroed so migrant batches are not
	// retained past release.
	held    []heldBatch
	heldLen int
	events  strings.Builder

	sent, dropped int64
}

var (
	_ Endpoint         = (*Faulty)(nil)
	_ LivenessReporter = (*Faulty)(nil)
)

// NewFaulty wraps inner with spec, drawing every stochastic decision
// from a stream seeded with seed.
func NewFaulty(inner Endpoint, spec FaultSpec, seed uint64) *Faulty {
	spec = spec.withDefaults()
	return &Faulty{
		inner: inner, spec: spec, r: rng.New(seed),
		held: make([]heldBatch, spec.MaxDelay+1),
	}
}

// Self implements Endpoint.
func (f *Faulty) Self() int { return f.inner.Self() }

// SetPeerStateHook implements LivenessReporter by forwarding to the
// inner endpoint when it reports liveness; otherwise it is a no-op.
func (f *Faulty) SetPeerStateHook(h func(peer int, up bool)) {
	if lr, ok := f.inner.(LivenessReporter); ok {
		lr.SetPeerStateHook(h)
	}
}

// event appends one line to the fault schedule. The format is stable:
// it is the byte-identical artifact the determinism test compares.
func (f *Faulty) event(format string, args ...any) {
	fmt.Fprintf(&f.events, format, args...)
	f.events.WriteByte('\n')
}

// crashed reports whether id is scripted dead at the current tick.
func (f *Faulty) crashed(id int) bool {
	for _, c := range f.spec.Crashes {
		if c.Peer == id && c.active(f.tick) {
			return true
		}
	}
	return false
}

// partitioned reports whether the self↔dest link is scripted cut.
func (f *Faulty) partitioned(dest int) bool {
	for _, p := range f.spec.Partitions {
		if p.active(f.tick, f.inner.Self(), dest) {
			return true
		}
	}
	return false
}

// Send implements Endpoint: advance the logical clock, release any due
// held batches, then roll this batch's fate in fixed draw order
// (loss+jitter first, then duplicate, then reorder).
func (f *Faulty) Send(dest int, migrants []*core.Individual) bool {
	f.tick++
	f.seq++
	f.releaseDue()
	f.sent++
	switch {
	case f.crashed(f.inner.Self()), f.crashed(dest):
		f.dropped++
		f.event("%06d crash-drop dst=%d seq=%d", f.tick, dest, f.seq)
		return false
	case f.partitioned(dest):
		f.dropped++
		f.event("%06d partition-drop dst=%d seq=%d", f.tick, dest, f.seq)
		return false
	}
	drop, jit := f.spec.Link.Roll(f.r)
	if drop {
		f.dropped++
		f.event("%06d drop dst=%d seq=%d", f.tick, dest, f.seq)
		return false
	}
	dup := f.spec.DupProb > 0 && f.r.Chance(f.spec.DupProb)
	delay := 0
	if jit > 0 {
		// Map the continuous jitter draw uniformly onto [1, MaxDelay].
		delay = 1 + int(jit/f.spec.Link.Jitter*float64(f.spec.MaxDelay))
		if delay > f.spec.MaxDelay {
			delay = f.spec.MaxDelay
		}
	} else if f.spec.ReorderProb > 0 && f.r.Chance(f.spec.ReorderProb) {
		delay = 1
		f.event("%06d reorder dst=%d seq=%d", f.tick, dest, f.seq)
	}
	if delay > 0 {
		if jit > 0 {
			f.event("%06d delay=%d dst=%d seq=%d dup=%v", f.tick, delay, dest, f.seq, dup)
		}
		// Indexed write into the fixed queue: releaseDue just drained
		// everything due, so at most MaxDelay earlier batches remain and
		// this slot always exists (an overflow would be an invariant
		// breach worth the panic).
		f.held[f.heldLen] = heldBatch{
			due:  f.tick + uint64(delay),
			dest: dest, migrants: migrants, dup: dup,
		}
		f.heldLen++
		return true
	}
	f.event("%06d deliver dst=%d seq=%d dup=%v", f.tick, dest, f.seq, dup)
	ok := f.forward(dest, migrants, dup)
	return ok
}

// forward hands a batch (and its duplicate, if rolled) to the inner
// endpoint, counting inner refusals as drops of the injected copy only.
func (f *Faulty) forward(dest int, migrants []*core.Individual, dup bool) bool {
	ok := f.inner.Send(dest, migrants)
	if dup {
		// The duplicate must carry its own clones: the originals' owner
		// is now the receiving population.
		copies := make([]*core.Individual, len(migrants))
		for i, ind := range migrants {
			copies[i] = ind.Clone()
		}
		_ = f.inner.Send(dest, copies)
	}
	return ok
}

// releaseDue forwards held batches whose due tick has arrived, in
// insertion order, compacting the queue in place (kept batches emit no
// events, so the released-event sequence is identical to a two-pass
// filter). Crash and partition windows are re-checked at release time:
// a batch delayed into a partition dies in it.
func (f *Faulty) releaseDue() {
	if f.heldLen == 0 {
		return
	}
	w := 0
	for i := 0; i < f.heldLen; i++ {
		h := f.held[i]
		if h.due > f.tick {
			f.held[w] = h
			w++
			continue
		}
		if f.crashed(f.inner.Self()) || f.crashed(h.dest) || f.partitioned(h.dest) {
			f.dropped++
			f.event("%06d release-drop dst=%d", f.tick, h.dest)
			continue
		}
		f.event("%06d release dst=%d dup=%v", f.tick, h.dest, h.dup)
		f.forward(h.dest, h.migrants, h.dup)
	}
	for i := w; i < f.heldLen; i++ {
		f.held[i] = heldBatch{}
	}
	f.heldLen = w
}

// Recv implements Endpoint: releases due held batches (without
// advancing the clock or drawing randomness — receive is fault-free by
// design, every injected fault is attributed to the sending side) and
// passes through.
func (f *Faulty) Recv() ([]*core.Individual, bool) {
	f.releaseDue()
	return f.inner.Recv()
}

// Stats implements Endpoint: the inner endpoint's accounting plus the
// batches this wrapper injected away. Sent is the wrapper's own offer
// count (batches the island actually attempted).
func (f *Faulty) Stats() core.NetStats {
	s := f.inner.Stats()
	s.Sent = f.sent
	s.Dropped += f.dropped
	return s
}

// Schedule returns the fault-event log: one line per decision, in
// order. Two Faulty wrappers with the same seed, spec and operation
// sequence produce byte-identical schedules.
func (f *Faulty) Schedule() []byte { return []byte(f.events.String()) }

// Close implements Endpoint: undelivered held batches are dropped and
// counted, then the inner endpoint closes.
func (f *Faulty) Close() error {
	f.dropped += int64(f.heldLen)
	for i := 0; i < f.heldLen; i++ {
		f.held[i] = heldBatch{}
	}
	f.heldLen = 0
	return f.inner.Close()
}
