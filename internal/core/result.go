package core

import (
	"fmt"
	"time"
)

// RunStats is the uniform accounting block shared by every runtime's
// result type: all eight PGA models (sequential, master–slave, island,
// cellular, hierarchical, p2p, SIM, and the supervised variants) embed it,
// so Generations/Evaluations/BestFitness/Elapsed mean the same thing
// everywhere — the common accounting that Harada & Alba's evaluation
// methodology requires for cross-model comparison. It is filled by
// engine.Loop, the shared run-loop driver. What one "evaluation" counts
// per model is documented in DESIGN §3.
type RunStats struct {
	// Best is the best individual found (a stable copy; nil when the model
	// tracks fitness only, e.g. free-running async demes).
	Best *Individual
	// BestFitness is the best fitness seen over the whole run (kept
	// separate from Best so RunStats survives genome reuse).
	BestFitness float64
	// Generations is the number of completed steps (the maximum over demes
	// in asynchronous parallel modes).
	Generations int
	// Evaluations is the total number of fitness evaluations.
	Evaluations int64
	// Solved reports whether a known optimum was reached (always false
	// when the problem is not TargetAware).
	Solved bool
	// SolvedAtEval is the evaluation count at which the optimum was first
	// reached (0 when !Solved).
	SolvedAtEval int64
	// SolvedAtGen is the generation at which the optimum was first
	// reached (0 when !Solved).
	SolvedAtGen int
	// StopReason describes which condition terminated the run.
	StopReason string
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// NetStats is the delivery accounting of a migration transport endpoint
// (internal/transport): how many migrant batches an island offered,
// actually put on the wire, received, and lost, plus the link-health
// transitions of its peers. Wire-mode island results embed it so
// distributed runs report communication loss the way they report
// evaluations — explicitly, never silently (the Harada/Alba/Luque
// requirement that distributed measurements account for their failures).
type NetStats struct {
	// Sent counts batches offered to the transport (accepted into the
	// send path, whether or not they later reached the peer).
	Sent int64
	// Delivered counts batches handed to a peer: written to the wire
	// (TCP) or placed in the peer's inbox (loopback).
	Delivered int64
	// Received counts inbound batches dequeued by the island.
	Received int64
	// Dropped counts batches lost on this endpoint: backpressure
	// (drop-oldest queues, full inboxes), dead or unreachable peers,
	// write failures, corrupt frames and injected faults.
	Dropped int64
	// Reconnects counts peer links re-established after a failure.
	Reconnects int64
	// PeerDowns counts transitions of a peer to "down" after repeated
	// connection failures.
	PeerDowns int64
}

// Add accumulates other into s (aggregating per-endpoint stats).
func (s *NetStats) Add(other NetStats) {
	s.Sent += other.Sent
	s.Delivered += other.Delivered
	s.Received += other.Received
	s.Dropped += other.Dropped
	s.Reconnects += other.Reconnects
	s.PeerDowns += other.PeerDowns
}

// Result summarises a completed evolutionary run of a single engine.
type Result struct {
	RunStats
	// Problem is the name of the problem that was optimised.
	Problem string
}

// String implements fmt.Stringer.
func (r *Result) String() string {
	return fmt.Sprintf("%s: best=%g gens=%d evals=%d solved=%v (%s, %v)",
		r.Problem, r.BestFitness, r.Generations, r.Evaluations, r.Solved, r.StopReason, r.Elapsed)
}
