// Package transport is the wire layer of the island model: it carries
// migrant batches between islands that may live in the same process
// (Loopback), in separate OS processes connected by TCP sockets (TCP),
// or behind a deterministic fault injector (Faulty).
//
// The survey's distributed-PGA perspective (§4) and the frameworks it
// reviews (DREAM, ParadisEO, the Hadoop-GA line) all run islands over a
// real network where messages are lost, delayed, duplicated and peers
// die. This package is designed around that: failure is the normal
// case, and every primitive is best-effort —
//
//   - Send never blocks. A batch that cannot be delivered right now is
//     queued in a bounded per-peer queue; when the queue is full the
//     OLDEST batch is dropped (migration carries the current population's
//     genes — a stale batch is the least valuable one).
//   - Evolution never waits on the network. A peer that is down costs
//     dropped batches, not progress: the island keeps evolving solo and
//     rejoins when the link heals.
//   - Every loss is counted. Stats (core.NetStats) accounts for each
//     batch that was dropped, by whom and never silently.
//   - Batches are borrowed and lent, never handed over (see Endpoint):
//     Send copies or encodes what it keeps, Recv's batch is the
//     endpoint's until the next Recv, and each endpoint reuses its
//     frames and batches, so a warm endpoint allocates nothing per
//     batch.
//
// The deterministic half of the repository's contract extends here
// through Faulty: injected drops, delays, duplicates, reorders,
// partitions and peer crashes are driven by a seeded rng.Source and a
// logical clock, so the same seed replays the same fault schedule
// byte-for-byte (see FaultSpec and the schedule property test).
package transport

import (
	"reflect"
	"sync/atomic"

	"pga/internal/core"
)

// Endpoint is one island's attachment to the migration medium. An
// Endpoint is used by a single island goroutine (Send/Recv are not safe
// for concurrent use with each other); Stats and Close may be called
// from other goroutines after the island's loop has finished.
//
// Batches are borrowed and lent, never handed over: Send reads migrants
// and keeps nothing of them once it returns (an endpoint copies or
// encodes what it must hold), so a sender may pass its own population's
// members and overwrite them straight after; and the batch Recv returns
// is the endpoint's, valid until the next Recv on that endpoint, so a
// receiver copies in what it keeps (migration.Replacer.Integrate does).
type Endpoint interface {
	// Self returns this endpoint's island id.
	Self() int
	// Send offers one migrant batch to island dest, borrowing it for the
	// call. It is best-effort and non-blocking: a false return means the
	// batch was refused locally (unknown or dead peer, full loopback
	// inbox, closed endpoint) — the batch is already accounted as
	// dropped. A true return means the batch entered the delivery path;
	// it may still be lost later (and then counted in Stats().Dropped).
	Send(dest int, migrants []*core.Individual) bool
	// Recv dequeues one pending inbound batch without blocking; ok is
	// false when nothing is pending. The batch is lent: it stays valid
	// until the next Recv.
	Recv() (migrants []*core.Individual, ok bool)
	// Stats returns a snapshot of the endpoint's delivery accounting.
	Stats() core.NetStats
	// Close releases the endpoint's resources (sockets, goroutines).
	// It is idempotent; Send/Recv on a closed endpoint refuse politely.
	Close() error
}

// LivenessReporter is implemented by transports that track peer link
// health (TCP). The hook fires from transport goroutines when a peer
// transitions down (after repeated connection failures) or back up
// (successful reconnect); implementations of the hook must be
// concurrency-safe and fast. Faulty forwards to its inner endpoint.
type LivenessReporter interface {
	SetPeerStateHook(func(peer int, up bool))
}

// netCounters is the shared atomic implementation of endpoint stats.
type netCounters struct {
	sent, delivered, received, dropped, reconnects, peerDowns atomic.Int64
}

// snapshot returns the counters as a core.NetStats value.
func (c *netCounters) snapshot() core.NetStats {
	return core.NetStats{
		Sent:       c.sent.Load(),
		Delivered:  c.delivered.Load(),
		Received:   c.received.Load(),
		Dropped:    c.dropped.Load(),
		Reconnects: c.reconnects.Load(),
		PeerDowns:  c.peerDowns.Load(),
	}
}

// Loopback is the in-process implementation: the endpoints of one
// NewLoopback call share bounded channels, reproducing the island
// model's historical inbox semantics (bounded non-blocking buffers; a
// full inbox refuses the batch). It is the default medium of
// island.RunParallel's asynchronous modes. Send copies the batch into
// one of the destination inbox's pooled batches, and Recv hands the
// batch it lent last time back to its own inbox's pool, so a warm
// Loopback allocates nothing.
type Loopback struct {
	self    int
	inboxes []chan []*core.Individual
	// pools holds each inbox's spare batches; lent is the batch the last
	// Recv returned.
	pools  []chan []*core.Individual
	lent   []*core.Individual
	closed atomic.Bool
	netCounters
}

var _ Endpoint = (*Loopback)(nil)

// NewLoopback builds n connected in-process endpoints whose inboxes
// hold buffer batches each (buffer < 1 is raised to 1).
func NewLoopback(n, buffer int) []*Loopback {
	if buffer < 1 {
		buffer = 1
	}
	inboxes := make([]chan []*core.Individual, n)
	pools := make([]chan []*core.Individual, n)
	for i := range inboxes {
		inboxes[i] = make(chan []*core.Individual, buffer)
		// Every batch of an inbox is queued, lent, or being filled by
		// one of its senders.
		pools[i] = make(chan []*core.Individual, buffer+n)
	}
	eps := make([]*Loopback, n)
	for i := range eps {
		eps[i] = &Loopback{self: i, inboxes: inboxes, pools: pools}
	}
	return eps
}

// Self implements Endpoint.
func (l *Loopback) Self() int { return l.self }

// Send implements Endpoint: a non-blocking offer of a pooled copy into
// the destination inbox. A full inbox refuses the batch (the caller may
// retry on a later epoch — the supervised runtime's retry/dead-letter
// loop — or drop it, the unsupervised bounded-staleness model).
func (l *Loopback) Send(dest int, migrants []*core.Individual) bool {
	l.sent.Add(1)
	if l.closed.Load() || dest < 0 || dest >= len(l.inboxes) || dest == l.self {
		l.dropped.Add(1)
		return false
	}
	batch := copyBatch(take(l.pools[dest]), migrants)
	select {
	case l.inboxes[dest] <- batch:
		l.delivered.Add(1)
		return true
	default:
		give(l.pools[dest], batch)
		l.dropped.Add(1)
		return false
	}
}

// Recv implements Endpoint.
func (l *Loopback) Recv() ([]*core.Individual, bool) {
	if l.lent != nil {
		give(l.pools[l.self], l.lent)
		l.lent = nil
	}
	select {
	case batch := <-l.inboxes[l.self]:
		l.received.Add(1)
		l.lent = batch
		return batch, true
	default:
		return nil, false
	}
}

// Stats implements Endpoint.
func (l *Loopback) Stats() core.NetStats { return l.snapshot() }

// Close implements Endpoint. The shared channels are left open (peer
// endpoints may still be draining); a closed endpoint refuses sends.
func (l *Loopback) Close() error {
	l.closed.Store(true)
	return nil
}

// take returns a spare buffer from pool, or the zero value when there
// is none.
func take[T any](pool chan T) T {
	select {
	case b := <-pool:
		return b
	default:
		var zero T
		return zero
	}
}

// give returns buffer b to pool, leaving it to the collector when the
// pool is full.
func give[T any](pool chan T, b T) {
	select {
	case pool <- b:
	default:
	}
}

// copyBatch copies src into dst's individuals by value and returns dst
// resized to src. It reuses an individual's genome when the genome
// matches the migrant's in type and length, and clones otherwise: one
// endpoint may carry batches of several problems.
func copyBatch(dst, src []*core.Individual) []*core.Individual {
	if cap(dst) < len(src) {
		grown := make([]*core.Individual, len(src))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(src)]
	for i, m := range src {
		if d := dst[i]; d != nil && reflect.TypeOf(d.Genome) == reflect.TypeOf(m.Genome) && d.Genome.Len() == m.Genome.Len() {
			d.CopyFrom(m)
		} else {
			dst[i] = m.Clone()
		}
	}
	return dst
}
