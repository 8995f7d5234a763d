package island

// Wire mode: one island per OS process, migration over a real
// transport (internal/transport). RunWire is the process-local half of
// the distributed island model — cmd/pgaisland wires it to a TCP
// endpoint and N processes form the island ring the in-process modes
// simulate with goroutines.
//
// Failure is the normal case out here, so the semantics are explicitly
// degraded-but-alive:
//
//   - Migration is best-effort. A batch that cannot reach a peer is
//     dropped and counted (Result.Net, surfaced through DeadLettered);
//     evolution never blocks on the wire. A batch whose genomes do not
//     fit this island's problem is refused and counted (Result.Refused).
//   - An island that loses peers keeps evolving solo. Peer-liveness
//     transitions from the transport feed a supervise.Router over the
//     island topology, so migration reroutes around a partitioned or
//     crashed peer exactly the way the in-process supervisor routes
//     around a dead deme — and, unlike demes, a wire peer that
//     reconnects is revived (Router.MarkAlive) and rejoins the flow.
//   - No global solve broadcast: a wire island stops at its generation
//     cap, recording its own solve point on the way. Cross-process
//     termination is the driver's job (cmd/pgaisland exits; the peers'
//     sends to it dead-letter).

import (
	"context"
	"fmt"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
	"pga/internal/transport"
)

// WireConfig configures one island of a multi-process run.
type WireConfig struct {
	// Self is this island's id in [0, Topology.Size()).
	Self int
	// Topology is the full inter-island graph (required); only the
	// healed neighbour view of Self is used locally.
	Topology topology.Topology
	// Endpoint carries migrant batches (required). If it reports peer
	// liveness (transport.LivenessReporter), down/up transitions heal
	// and re-heal the migration routes.
	Endpoint transport.Endpoint
	// Policy is the migration policy (defaults applied).
	Policy migration.Policy
	// Engine is this island's evolution engine (required).
	Engine ga.Engine
	// MigRNG is this island's private migration stream (required; see
	// WireStreams for the split that matches the in-process model).
	MigRNG *rng.Source
	// MaxGens caps the run: it is the island's stop condition.
	MaxGens int

	// Context and Observers are the caller's run control, handed
	// to engine.Loop unchanged (see engine.Control; they stay fields of
	// this config, which is RunWire's one argument, because cmd/pgaperf
	// builds it by keyed literal). Cancelling Context ends the island
	// within one generation; the endpoint stays the caller's to close.
	Context   context.Context
	Observers []engine.Observer
}

// WireStreams returns the engine and migration streams the in-process
// model's New gives deme self of n under the same seed (newDemeStreams),
// so a wire run over n islands hands every island the private streams its
// deme would have had in-process. A self outside [0, n) has no deme and
// gets nil, nil.
func WireStreams(seed uint64, n, self int) (engineRNG, migRNG *rng.Source) {
	if self < 0 || self >= n {
		return nil, nil
	}
	engineRNGs, migRNGs := newDemeStreams(rng.New(seed), n)
	return engineRNGs[self], migRNGs[self]
}

// RunWire runs one island over its transport endpoint until it reaches
// MaxGens (or Context is cancelled). The returned Result maps transport accounting
// onto the supervision fields: DeadLettered counts transport-level
// batch losses (every batch that never reached a peer) and Restarts
// counts peer-link reconnects — the wire analogue of a deme restart.
func RunWire(cfg WireConfig) *Result {
	if cfg.Topology == nil {
		panic("island: WireConfig.Topology is required")
	}
	if cfg.Endpoint == nil {
		panic("island: WireConfig.Endpoint is required")
	}
	if cfg.Engine == nil {
		panic("island: WireConfig.Engine is required")
	}
	if cfg.MigRNG == nil {
		panic("island: WireConfig.MigRNG is required")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Topology.Size() {
		panic(fmt.Sprintf("island: WireConfig.Self %d is outside [0, %d)", cfg.Self, cfg.Topology.Size()))
	}
	cfg.Policy = cfg.Policy.WithDefaults()

	router := supervise.NewRouter(cfg.Topology)
	if lr, ok := cfg.Endpoint.(transport.LivenessReporter); ok {
		lr.SetPeerStateHook(func(peer int, up bool) {
			if up {
				router.MarkAlive(peer)
			} else {
				router.MarkDead(peer)
			}
		})
	}

	// The island is the freeDeme the in-process async mode runs per
	// goroutine, unsupervised and with no shared solve flag: its one loop
	// records the solve point itself and so also tracks best.
	d := &freeDeme{
		self: cfg.Self, e: cfg.Engine, dir: cfg.Engine.Problem().Direction(),
		policy: cfg.Policy, mr: cfg.MigRNG, ep: cfg.Endpoint, routes: router,
	}
	res := &Result{}
	ta, _ := cfg.Engine.Problem().(core.TargetAware)
	totals := engine.Loop(d, engine.Options{
		Stop:      core.MaxGenerations(cfg.MaxGens),
		Target:    ta,
		Context:   cfg.Context,
		Observers: cfg.Observers,
	}, &res.RunStats)
	res.Migrations = totals.Migrations
	res.Refused = d.refused
	res.PerDemeBest = []float64{d.e.Population().BestFitness(d.dir)}
	res.Net = cfg.Endpoint.Stats()
	res.DeadLettered = res.Net.Dropped
	res.Restarts = res.Net.Reconnects
	res.DeadDemes = router.Dead()
	return res
}
