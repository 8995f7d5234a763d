// Package p2p implements a DREAM-style peer-to-peer evolutionary overlay:
// the survey's §4 reviews DREAM/DRM (Arenas 2002, Jelasity 2002) — a
// "virtual machine built from a large number of individual computers on
// the Internet" whose lowest layer is an epidemic (gossip) protocol over
// which island populations exchange individuals while nodes join and
// leave at will.
//
// This package reproduces that structure in-process and deterministically:
// peers hold small populations, discover each other through newscast-style
// random-view gossip, migrate individuals to random view members, and
// churn (leave/join) without any coordinator. The A07 experiment shows the
// overlay's efficacy degrading gracefully with churn — the robustness
// story of the DREAM project.
package p2p

import (
	"slices"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/rng"
)

// Config describes a P2P overlay run.
type Config struct {
	// Problem is the optimisation problem (required).
	Problem core.Problem
	// Peers is the initial number of peers; default 16.
	Peers int
	// NewEngine builds a peer's engine (required). Peers that rejoin
	// after churn receive a fresh engine.
	NewEngine func(peer int, r *rng.Source) ga.Engine
	// ViewSize is the gossip view length; default 4.
	ViewSize int
	// GossipEvery is the generations between gossip+migration rounds;
	// default 5.
	GossipEvery int
	// ChurnRate is each alive peer's per-generation probability of
	// leaving; 0 disables churn.
	ChurnRate float64
	// RejoinRate is each dead peer's per-generation probability of
	// rejoining with a fresh population; default 0.5 when churn is on.
	RejoinRate float64
	// MinPeers is the floor below which churn cannot push the overlay;
	// default 2.
	MinPeers int
	// Seed seeds the run.
	Seed uint64
}

// Result summarises an overlay run. The embedded core.RunStats holds the
// accounting common to every runtime; BestFitness is the best fitness
// seen across all peers and time (peers churn away, so the historical
// best can exceed every live population's), and Evaluations counts all
// peers including departed ones.
type Result struct {
	core.RunStats
	// Departures and Joins count churn events.
	Departures, Joins int
	// Messages counts migrant transfers.
	Messages int
	// AliveAtEnd is the number of alive peers at the end.
	AliveAtEnd int
}

// peer is one overlay node.
type peer struct {
	engine ga.Engine
	view   []int
	alive  bool
	rng    *rng.Source
	// evals accumulated by engines that have since been replaced.
	retiredEvals int64
}

// Network is an instantiated overlay.
type Network struct {
	cfg   Config
	peers []*peer
	dir   core.Direction
	rng   *rng.Source

	// Gossip's storage, reused every round: pool holds two merged
	// views, cand a pool less one peer, id the identity table SampleInto
	// draws from and draw its output.
	pool []int
	cand []int
	id   []int
	draw []int
}

// New builds the overlay with all peers alive and random initial views.
func New(cfg Config) *Network {
	if cfg.Problem == nil {
		panic("p2p: Config.Problem is required")
	}
	if cfg.NewEngine == nil {
		panic("p2p: Config.NewEngine is required")
	}
	if cfg.Peers == 0 {
		cfg.Peers = 16
	}
	if cfg.ViewSize == 0 {
		cfg.ViewSize = 4
	}
	if cfg.GossipEvery == 0 {
		cfg.GossipEvery = 5
	}
	if cfg.MinPeers == 0 {
		cfg.MinPeers = 2
	}
	if cfg.ChurnRate > 0 && cfg.RejoinRate == 0 {
		cfg.RejoinRate = 0.5
	}
	master := rng.New(cfg.Seed)
	n := &Network{cfg: cfg, dir: cfg.Problem.Direction(), rng: master.Split()}
	for i := 0; i < cfg.Peers; i++ {
		pr := master.Split()
		p := &peer{engine: cfg.NewEngine(i, pr), alive: true, rng: pr}
		n.peers = append(n.peers, p)
	}
	// A merged pool holds at most every peer id; a view or a draw holds
	// at most ViewSize of them.
	n.pool = make([]int, 0, len(n.peers))
	n.cand = make([]int, 0, len(n.peers))
	n.id = make([]int, len(n.peers))
	for i := range n.id {
		n.id[i] = i
	}
	n.draw = make([]int, cfg.ViewSize)
	for i, p := range n.peers {
		p.view = n.randomView(i, make([]int, 0, cfg.ViewSize))
	}
	return n
}

// randomView draws ViewSize distinct peer ids ≠ self into view's storage
// and returns it.
func (n *Network) randomView(self int, view []int) []int {
	k := n.cfg.ViewSize
	if k > len(n.peers)-1 {
		k = len(n.peers) - 1
	}
	view = view[:0]
	for _, j := range n.rng.SampleInto(n.id[:len(n.peers)-1], n.draw[:k]) {
		if j >= self {
			j++
		}
		view = append(view, j)
	}
	return view
}

// aliveCount returns the number of alive peers.
func (n *Network) aliveCount() int {
	c := 0
	for _, p := range n.peers {
		if p.alive {
			c++
		}
	}
	return c
}

// netStepper is the overlay's engine.Stepper: one generation is
// evolution on every alive peer, churn, then (on gossip epochs) view
// exchange and migration. Best() scans the alive peers, so the loop's
// monotone tracking is what preserves the historical best across churn.
type netStepper struct {
	n   *Network
	res *Result
}

// Step implements engine.Stepper.
func (s *netStepper) Step(gen int) engine.StepInfo {
	n := s.n
	var info engine.StepInfo
	// 1. Evolution.
	for _, p := range n.peers {
		if p.alive {
			p.engine.Step()
		}
	}
	// 2. Churn: departures then rejoins, respecting the floor.
	if n.cfg.ChurnRate > 0 {
		for _, p := range n.peers {
			if p.alive && n.aliveCount() > n.cfg.MinPeers && n.rng.Chance(n.cfg.ChurnRate) {
				p.alive = false
				p.retiredEvals += p.engine.Evaluations()
				s.res.Departures++
			}
		}
		for i, p := range n.peers {
			if !p.alive && n.rng.Chance(n.cfg.RejoinRate) {
				pr := p.rng.Split()
				p.engine = n.cfg.NewEngine(i, pr)
				p.alive = true
				p.view = n.randomView(i, p.view)
				s.res.Joins++
			}
		}
	}
	// 3. Gossip + migration epoch.
	if gen%n.cfg.GossipEvery == 0 {
		n.gossip()
		sent := n.migrate()
		s.res.Messages += sent
		info.Migrations = int64(sent)
	}
	return info
}

// Best implements engine.Stepper: the best individual over alive peers.
func (s *netStepper) Best() (*core.Individual, float64) {
	n := s.n
	bestFit := n.dir.Worst()
	var best *core.Individual
	for _, p := range n.peers {
		if !p.alive {
			continue
		}
		pop := p.engine.Population()
		if j := pop.Best(n.dir); j >= 0 && n.dir.Better(pop.Members[j].Fitness, bestFit) {
			bestFit = pop.Members[j].Fitness
			best = pop.Members[j]
		}
	}
	return best, bestFit
}

// Evaluations implements engine.Stepper.
func (s *netStepper) Evaluations() int64 { return s.n.totalEvaluations() }

// Direction implements engine.Stepper.
func (s *netStepper) Direction() core.Direction { return s.n.dir }

// Run executes generations of the overlay until stop fires and returns
// the result. The simulation is fully deterministic for a given Config;
// ctl is the caller's run control.
func (n *Network) Run(stop core.StopCondition, ctl engine.Control) *Result {
	res := &Result{}
	ta, _ := n.cfg.Problem.(core.TargetAware)
	engine.Loop(&netStepper{n: n, res: res}, engine.Options{Stop: stop, Target: ta}.With(ctl), &res.RunStats)
	res.AliveAtEnd = n.aliveCount()
	return res
}

// gossip refreshes views newscast-style: each alive peer contacts one
// random view member; the pair pool their views and each keeps a random
// ViewSize subset (dead contacts are simply dropped — failure detection
// by silence, as in epidemic protocols). Views are rewritten in place.
func (n *Network) gossip() {
	for i, p := range n.peers {
		if !p.alive || len(p.view) == 0 {
			continue
		}
		j := p.view[n.rng.Intn(len(p.view))]
		q := n.peers[j]
		if !q.alive {
			// Drop the dead contact and draw a random replacement.
			p.view = dropValue(p.view, j)
			p.view = append(p.view, n.randomView(i, n.cand)[0])
			continue
		}
		n.pool = n.mergeViews(p.view, q.view, i, j)
		p.view = n.samplePool(p.view, i)
		q.view = n.samplePool(q.view, j)
	}
}

// mergeViews pools two views plus both peer ids, deduplicated, in the
// pool's storage.
func (n *Network) mergeViews(a, b []int, ia, ib int) []int {
	pool := n.pool[:0]
	add := func(v int) {
		if !slices.Contains(pool, v) {
			pool = append(pool, v)
		}
	}
	for _, v := range a {
		add(v)
	}
	for _, v := range b {
		add(v)
	}
	add(ia)
	add(ib)
	return pool
}

// samplePool draws up to ViewSize distinct values from the pool,
// excluding self, into view's storage and returns it.
func (n *Network) samplePool(view []int, self int) []int {
	cand := n.cand[:0]
	for _, v := range n.pool {
		if v != self {
			cand = append(cand, v)
		}
	}
	k := min(n.cfg.ViewSize, len(cand))
	view = view[:0]
	for _, idx := range n.rng.SampleInto(n.id[:len(cand)], n.draw[:k]) {
		view = append(view, cand[idx])
	}
	return view
}

// migrate sends each alive peer's best individual to one random alive
// view member, copied into the member it replaces (replace-worst
// integration). Returns messages delivered.
func (n *Network) migrate() int {
	sent := 0
	for _, p := range n.peers {
		if !p.alive || len(p.view) == 0 {
			continue
		}
		j := p.view[n.rng.Intn(len(p.view))]
		q := n.peers[j]
		if !q.alive {
			continue // message to a departed node is lost
		}
		pop := p.engine.Population()
		b := pop.Best(n.dir)
		if b < 0 {
			continue
		}
		qpop := q.engine.Population()
		if w := qpop.Worst(n.dir); w >= 0 {
			qpop.Members[w].CopyFrom(pop.Members[b])
			sent++
		}
	}
	return sent
}

// totalEvaluations sums evaluations over live engines and retired ones.
func (n *Network) totalEvaluations() int64 {
	var t int64
	for _, p := range n.peers {
		t += p.retiredEvals
		if p.alive {
			t += p.engine.Evaluations()
		}
	}
	return t
}

// dropValue removes the first occurrence of v.
func dropValue(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
