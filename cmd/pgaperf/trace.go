package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync/atomic"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/transport"
)

// Span names. A run span is the root of one traced run; generation
// spans are its children (observer callback to observer callback), and
// the engine step and the endpoint calls are children of the
// generation they happen in.
const (
	spanRun        = "run"
	spanGeneration = "engine.generation"
	spanStep       = "ga.step"
	spanSend       = "transport.send"
	spanRecv       = "transport.recv"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch; Parent is the ID of the span that caused
// it (0: none). Spans of one traced run share its recorder.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds the spans of one traced run in memory. It is used by
// one goroutine (each in-process island gets its own) and written out
// only when the benchmark ends. Spans are kept at generation
// granularity: a span per operator call would number tens of millions.
type recorder struct {
	label string
	epoch time.Time
	spans []span
	// gen is the open generation span that step and endpoint spans hang
	// under (the run span before the first generation).
	gen int
}

func newRecorder(label string, capacity int) *recorder {
	return &recorder{label: label, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// open starts a span and returns its ID.
func (r *recorder) open(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans)
}

// close ends span id.
func (r *recorder) close(id int) { r.spans[id-1].End = int64(time.Since(r.epoch)) }

// durations returns the lengths in seconds of every closed span called
// name, in recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// beginRun opens the run span and makes it the parent of whatever
// happens before the first generation.
func (r *recorder) beginRun() int {
	run := r.open(spanRun, 0)
	r.gen = r.open(spanGeneration, run)
	return run
}

// nextGeneration closes the open generation span and opens the next:
// the body of an engine.Observer's OnGeneration (or RunOpts.OnStep).
func (r *recorder) nextGeneration(run int) {
	r.close(r.gen)
	r.gen = r.open(spanGeneration, run)
}

// endRun closes the trailing generation span (loop exit, final
// accounting) and the run span.
func (r *recorder) endRun(run int) {
	r.close(r.gen)
	r.close(run)
}

// writeSpans appends every recorder's spans to path as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Run string `json:"run"`
				span
			}{r.label, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine delegates to a ga.Engine and records one span per Step.
// It draws nothing and touches no population state, so the wrapped run
// is draw-identical to the bare one.
type tracedEngine struct {
	ga.Engine
	rec *recorder
}

// Step implements ga.Engine.
func (t *tracedEngine) Step() {
	id := t.rec.open(spanStep, t.rec.gen)
	t.Engine.Step()
	t.rec.close(id)
}

// tracedEndpoint delegates to a transport.Endpoint and records a span
// and a count per Send and Recv.
type tracedEndpoint struct {
	transport.Endpoint
	rec *recorder
}

// Send implements transport.Endpoint.
func (t *tracedEndpoint) Send(dest int, migrants []*core.Individual) bool {
	id := t.rec.open(spanSend, t.rec.gen)
	ok := t.Endpoint.Send(dest, migrants)
	t.rec.close(id)
	return ok
}

// Recv implements transport.Endpoint.
func (t *tracedEndpoint) Recv() ([]*core.Individual, bool) {
	id := t.rec.open(spanRecv, t.rec.gen)
	batch, ok := t.Endpoint.Recv()
	t.rec.close(id)
	return batch, ok
}

// SetPeerStateHook forwards transport.LivenessReporter, which embedding
// the Endpoint interface would otherwise hide from island.RunWire — and
// with it the route healing of the run being traced.
func (t *tracedEndpoint) SetPeerStateHook(f func(peer int, up bool)) {
	if lr, ok := t.Endpoint.(transport.LivenessReporter); ok {
		lr.SetPeerStateHook(f)
	}
}

// countingListener is a net.Listener whose accepted connections count
// the bytes read from them: adopted through TCPConfig.Listener, it
// measures the wire size of what a peer sent without touching the
// transport.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

// Accept implements net.Listener.
func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

// Read implements net.Conn.
func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}
