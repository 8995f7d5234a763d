package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/genome"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/persist"
	"pga/internal/rng"
	"pga/internal/spec"
	"pga/internal/transport"
)

// Probes measure the layers that cannot be wrapped. pgalint's purity
// rule matches Evaluate/Mutate/CrossInto/Select methods by shape,
// module-wide, so a timing wrapper around an operator or a problem
// would itself be a violation. A probe instead calls the layer's public
// functions directly, on inputs of the workload's exact shape, and the
// budget multiplies the unit cost by the exact call count the
// deterministic report implies.

// sink and sinkF keep probe results live so the compiler cannot remove
// the measured calls.
var (
	sink  uint64
	sinkF float64
)

// probeRounds is how often each probe repeats its batch. The fastest
// round is reported: a unit cost is what the layer costs undisturbed,
// the host's noise only ever adds to it, and all the rounds of a probe
// fit inside one of the host's slow phases, which a median would not
// see through.
const probeRounds = 7

// probeTarget is the time one round of a calibrated probe aims for.
const probeTarget = 15 * time.Millisecond

// values collects the metrics of one workload's traced pass.
type values map[string]float64

// perOp times batch (which performs n operations) probeRounds times and
// returns the cost of one operation, in nanoseconds, in the fastest
// round.
func perOp(n int, batch func()) float64 {
	best := math.Inf(1)
	for i := 0; i < probeRounds; i++ {
		start := time.Now()
		batch()
		best = math.Min(best, float64(time.Since(start))/float64(n))
	}
	return best
}

// prober runs the probes of one workload: the shape they are taken
// at, the stream seed, how much work each does (sizes.probe: 1 for the
// benchmark, a fraction for the smoke test) and where the results go.
type prober struct {
	sh    shape
	seed  uint64
	scale float64
	out   values
}

// scaled shrinks a full-size count for the smoke test.
func (p *prober) scaled(n int) int {
	if m := int(float64(n) * p.scale); m > 1 {
		return m
	}
	return 1
}

// calibrated sizes the batch so one round takes about probeTarget,
// then measures it. batch(n) performs n operations.
func (p *prober) calibrated(batch func(n int)) float64 {
	const trial = 32
	start := time.Now()
	batch(trial)
	per := time.Since(start) / trial
	n := trial
	if per > 0 {
		n = int(time.Duration(float64(probeTarget)*p.scale) / per)
	}
	if n < trial {
		n = trial
	}
	if n > 1<<22 {
		n = 1 << 22
	}
	return perOp(n, func() { batch(n) })
}

// shape is what a workload's hot path looks like to the layers below
// the engine: the problem, a population of its genomes, the operators
// and the crossover rate.
type shape struct {
	prob  core.Problem
	pop   *core.Population
	sel   operators.Selector
	cross operators.Crossover
	mut   operators.Mutator
	rate  float64
}

// shapeOf resolves the operators of a bit-string engine section the way
// spec.Build does (Tournament(2), Uniform, BitFlip and rate 0.9 where
// the section leaves a slot empty) and pairs them with the problem and
// population of a built or finished run.
func shapeOf(es spec.EngineSpec, prob core.Problem, pop *core.Population) (shape, error) {
	sh := shape{
		prob: prob, pop: pop.Clone(),
		sel: operators.Tournament{K: 2}, cross: operators.Uniform{}, mut: operators.BitFlip{},
		rate: 0.9,
	}
	if _, ok := pop.Members[0].Genome.(*genome.BitString); !ok {
		return sh, fmt.Errorf("probe shape must be a bit string, got %T", pop.Members[0].Genome)
	}
	var err error
	if sh.sel, err = resolveOp(es.Selector, sh.sel); err != nil {
		return sh, err
	}
	if sh.cross, err = resolveOp(es.Crossover, sh.cross); err != nil {
		return sh, err
	}
	if sh.mut, err = resolveOp(es.Mutator, sh.mut); err != nil {
		return sh, err
	}
	if es.CrossoverRate != 0 {
		sh.rate = es.CrossoverRate
	}
	return sh, nil
}

// resolveOp builds the operator an engine-section slot names through
// the operator registry, or returns def for an empty slot.
func resolveOp[T any](o *spec.OperatorSpec, def T) (T, error) {
	if o == nil {
		return def, nil
	}
	entry, ok := operators.LookupSpec(o.Name)
	if !ok {
		return def, fmt.Errorf("unknown operator %q", o.Name)
	}
	params := o.Params
	if params == nil {
		params = map[string]float64{}
	}
	built, ok := entry.Build(params).(T)
	if !ok {
		return def, fmt.Errorf("operator %q does not fit its slot", o.Name)
	}
	return built, nil
}

// rng measures the two draws the bit-wise operators are made of,
// 10^7 draws each.
func (p *prober) rng() {
	n := p.scaled(10_000_000 / probeRounds)
	out := p.out
	r := rng.New(p.seed)
	out["rng.chance_ns"] = perOp(n, func() {
		hits := uint64(0)
		for i := 0; i < n; i++ {
			if r.Chance(0.5) {
				hits++
			}
		}
		sink += hits
	})
	out["rng.uint64_ns"] = perOp(n, func() {
		x := uint64(0)
		for i := 0; i < n; i++ {
			x ^= r.Uint64()
		}
		sink += x
	})
}

// genome measures the bit accessors and the in-place copy at the
// workload's genome size.
func (p *prober) genome() {
	sh, out := p.sh, p.out
	g := sh.pop.Members[0].Genome.Clone().(*genome.BitString)
	bits := g.Len()
	passes := 1 + p.scaled(500_000)/bits
	out["genome.get_ns"] = perOp(passes*bits, func() {
		ones := uint64(0)
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < bits; i++ {
				if g.Get(i) {
					ones++
				}
			}
		}
		sink += ones
	})
	out["genome.set_ns"] = perOp(passes*bits, func() {
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < bits; i++ {
				g.Set(i, (i+pass)&1 == 0)
			}
		}
	})
	members := sh.pop.Members
	out["genome.copy_ns"] = p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			g.CopyFrom(members[i%len(members)].Genome)
		}
	})
}

// operators measures one selection, one crossover of a pair into
// pooled children, and one mutation, through the same entry points the
// engines call.
func (p *prober) operators() {
	sh, out := p.sh, p.out
	r := rng.New(p.seed)
	var scratch operators.Scratch
	dir := sh.prob.Direction()
	members := sh.pop.Members
	out["operators.select_ns"] = p.calibrated(func(n int) {
		picked := 0
		for i := 0; i < n; i++ {
			picked += operators.SelectWith(sh.sel, sh.pop, dir, r, &scratch)
		}
		sink += uint64(picked)
	})
	c1, c2 := members[0].Clone(), members[1].Clone()
	out["operators.cross_ns"] = p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			a, b := members[i%len(members)], members[(7*i+1)%len(members)]
			operators.CrossInto(sh.cross, a.Genome, b.Genome, c1, c2, r, &scratch)
		}
	})
	g := members[0].Genome.Clone()
	out["operators.mutate_ns"] = p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			sh.mut.Mutate(g, r)
		}
	})
}

// problem measures one fitness evaluation on the scalar path, on
// the batch seam where the problem has one, and through the
// SerialEvaluator the serial engines use. It returns the per-individual
// cost of the path the engines take (batch where available).
func (p *prober) problem() (pathNs float64) {
	sh, out := p.sh, p.out
	members := sh.pop.Members
	genomes := make([]core.Genome, len(members))
	for i, m := range members {
		genomes[i] = m.Genome
	}
	scalar := p.calibrated(func(n int) {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += sh.prob.Evaluate(genomes[i%len(genomes)])
		}
		sinkF += acc
	})
	out["problems.evaluate_ns"] = scalar
	pathNs = scalar
	per := float64(len(genomes))
	if bp, ok := sh.prob.(core.BatchProblem); ok {
		fits := make([]float64, len(genomes))
		pathNs = p.calibrated(func(n int) {
			for i := 0; i < n; i++ {
				bp.EvaluateBatch(genomes, fits)
			}
			sinkF += fits[0]
		}) / per
		out["problems.batch_evaluate_ns"] = pathNs
	}

	// The evaluator's own cost: what EvaluateAll adds per individual on
	// top of the evaluation path it dispatches to. It is a small
	// difference of two large costs, so the two are timed in alternating
	// rounds and the median difference is reported.
	ev := &core.SerialEvaluator{}
	work := sh.pop.Clone()
	fits := make([]float64, len(genomes))
	bp, batched := sh.prob.(core.BatchProblem)
	pops := 1 + int(float64(probeTarget)*p.scale/(pathNs*per))
	diffs := make([]float64, probeRounds)
	for round := range diffs {
		start := time.Now()
		for i := 0; i < pops; i++ {
			if batched {
				bp.EvaluateBatch(genomes, fits)
				continue
			}
			for k, g := range genomes {
				fits[k] = sh.prob.Evaluate(g)
			}
		}
		bare := time.Since(start)
		sinkF += fits[0]
		start = time.Now()
		for i := 0; i < pops; i++ {
			for _, ind := range work.Members {
				ind.Evaluated = false
			}
			ev.EvaluateAll(sh.prob, work)
		}
		diffs[round] = float64(time.Since(start)-bare) / (float64(pops) * per)
	}
	out["core.evaluator_overhead_ns"] = median(diffs)
	return pathNs
}

// nullStepper is an engine.Stepper that does nothing: what is left of
// a run when the model's step is free is the loop itself.
type nullStepper struct{}

func (nullStepper) Step(int) engine.StepInfo          { return engine.StepInfo{} }
func (nullStepper) Best() (*core.Individual, float64) { return nil, 0 }
func (nullStepper) Evaluations() int64                { return 0 }
func (nullStepper) Direction() core.Direction         { return core.Maximize }

// loop measures engine.Loop's cost per generation over a free
// stepper, with no observers and with four no-op observers.
func (p *prober) loop() {
	gens := p.scaled(200_000)
	out := p.out
	for _, c := range []struct {
		name      string
		observers int
	}{{"engine.loop_ns_per_gen.obs0", 0}, {"engine.loop_ns_per_gen.obs4", 4}} {
		obs := make([]engine.Observer, c.observers)
		for i := range obs {
			obs[i] = engine.Funcs{}
		}
		out[c.name] = perOp(gens, func() {
			var stats core.RunStats
			engine.Loop(nullStepper{}, engine.Options{Stop: core.MaxGenerations(gens), Observers: obs}, &stats)
			sink += uint64(stats.Generations)
		})
	}
}

// migration measures emigrant selection, batch cloning and
// immigrant integration on a deme of the wire island's size.
func (p *prober) migration() {
	sh, out := p.sh, p.out
	r := rng.New(p.seed)
	dir := sh.prob.Direction()
	deme := &core.Population{Members: sh.pop.Clone().Members}
	if deme.Len() > wirePop {
		deme.Members = deme.Members[:wirePop]
	}
	policy := migration.Policy{Count: wireCount}.WithDefaults()
	var batch []*core.Individual
	out["migration.pick_ns"] = p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			batch = policy.Select.Pick(deme, dir, policy.Count, r)
		}
	})
	out["migration.clone_ns"] = p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(migration.CloneBatch(batch)))
		}
	})
	// Integrate takes ownership of the migrants, so every call needs a
	// fresh clone; the clone's cost, measured just above, is taken out.
	both := p.calibrated(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(policy.Replace.Integrate(deme, dir, migration.CloneBatch(batch), r))
		}
	})
	out["migration.integrate_ns"] = both - out["migration.clone_ns"]
}

// migrantBatch is the batch the wire island sends: wireCount members of
// the shape's population.
func migrantBatch(sh shape) []*core.Individual {
	n := wireCount
	if n > sh.pop.Len() {
		n = sh.pop.Len()
	}
	return sh.pop.Members[:n]
}

// persist measures the wire payload codec on the workload's own
// migrant batch and on one real-vector and one permutation batch.
func (p *prober) persist() error {
	sh, out := p.sh, p.out
	r := rng.New(p.seed)
	reals := make([]*core.Individual, wireCount)
	perms := make([]*core.Individual, wireCount)
	for i := range reals {
		reals[i] = &core.Individual{Genome: genome.RandomRealVector(16, -5, 5, r), Fitness: float64(i), Evaluated: true}
		perms[i] = &core.Individual{Genome: genome.RandomPermutation(32, r), Fitness: float64(i), Evaluated: true}
	}
	for _, c := range []struct {
		prefix string
		batch  []*core.Individual
	}{{"persist.", migrantBatch(sh)}, {"persist.real.", reals}, {"persist.perm.", perms}} {
		pop := &core.Population{Members: c.batch}
		data, err := persist.MarshalPopulation(pop)
		if err != nil {
			return err
		}
		if _, err := persist.UnmarshalPopulation(data); err != nil {
			return err
		}
		out[c.prefix+"marshal_ns"] = p.calibrated(func(n int) {
			for i := 0; i < n; i++ {
				d, _ := persist.MarshalPopulation(pop) // checked once above
				sink += uint64(len(d))
			}
		})
		out[c.prefix+"unmarshal_ns"] = p.calibrated(func(n int) {
			for i := 0; i < n; i++ {
				back, _ := persist.UnmarshalPopulation(data) // checked once above
				sink += uint64(back.Len())
			}
		})
		if c.prefix == "persist." {
			out["persist.payload_bytes"] = float64(len(data))
		}
	}
	return nil
}

// pumpBatches drives count batches from endpoint a to endpoint b with at most
// window in flight, polling b with a yield instead of a busy spin, and
// returns the throughput and each batch's send-to-receive latency in
// seconds. The measurement is invalid, and an error, if any batch is
// dropped: the pump measures the medium, not its loss policy.
func pumpBatches(a, b transport.Endpoint, batch []*core.Individual, window, count int) (perS float64, latencies []float64, err error) {
	sentAt := make([]time.Time, count)
	latencies = make([]float64, 0, count)
	deadline := time.Now().Add(20 * time.Second)
	start := time.Now()
	sent, received := 0, 0
	for received < count {
		if sent < count && sent-received < window {
			sentAt[sent] = time.Now()
			if !a.Send(b.Self(), batch) {
				return 0, nil, fmt.Errorf("pump: batch %d refused", sent)
			}
			sent++
			continue
		}
		if _, ok := b.Recv(); ok {
			latencies = append(latencies, time.Since(sentAt[received]).Seconds())
			received++
			continue
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("pump: %d of %d batches arrived before the deadline", received, count)
		}
		runtime.Gosched()
	}
	elapsed := time.Since(start).Seconds()
	if d := a.Stats().Dropped + b.Stats().Dropped; d != 0 {
		return 0, nil, fmt.Errorf("pump: %d batches dropped", d)
	}
	return float64(count) / elapsed, latencies, nil
}

// tcpPair builds two TCP endpoints connected over loopback sockets,
// each on an already-bound listener (wrap may decorate the listeners).
func tcpPair(seed uint64, wrap func(i int, ln net.Listener) net.Listener) (eps [2]*transport.TCP, err error) {
	var lns [2]net.Listener
	defer func() {
		if err == nil {
			return
		}
		for i, ln := range lns {
			switch {
			case eps[i] != nil:
				eps[i].Close() // owns its listener
			case ln != nil:
				ln.Close()
			}
		}
	}()
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return eps, err
		}
	}
	for i := range eps {
		ln := lns[i]
		if wrap != nil {
			ln = wrap(i, ln)
		}
		eps[i], err = transport.NewTCP(transport.TCPConfig{
			Self:     i,
			Listener: ln,
			Peers:    map[int]string{1 - i: lns[1-i].Addr().String()},
			Seed:     seed + uint64(i),
		})
		if err != nil {
			return eps, err
		}
	}
	return eps, nil
}

// tcpQueueLen is transport.TCPConfig's default QueueLen: the pump keeps
// no more than that in flight, so the drop-oldest queue never evicts.
const tcpQueueLen = 8

// pump measures the transport alone: batches per second and
// latency through two TCP endpoints on loopback, and through the
// in-process Loopback medium for comparison.
func (p *prober) pump() error {
	out := p.out
	batch := migrantBatch(p.sh)
	eps, err := tcpPair(p.seed, nil)
	if err != nil {
		return err
	}
	defer eps[0].Close()
	defer eps[1].Close()
	// The first batches pay for the dial; they are not measured.
	if _, _, err := pumpBatches(eps[0], eps[1], batch, tcpQueueLen, 64); err != nil {
		return err
	}
	perS, lat, err := pumpBatches(eps[0], eps[1], batch, tcpQueueLen, p.scaled(3000))
	if err != nil {
		return err
	}
	out["transport.pump_batches_per_s"] = perS
	out["transport.pump_latency_ms.p50"] = percentile(lat, 0.5) * 1e3
	out["transport.pump_latency_ms.p99"] = percentile(lat, 0.99) * 1e3

	lo := transport.NewLoopback(2, tcpQueueLen)
	perS, _, err = pumpBatches(lo[0], lo[1], batch, tcpQueueLen, p.scaled(300_000))
	if err != nil {
		return err
	}
	out["transport.loopback_pump_batches_per_s"] = perS
	return nil
}

// runProbes runs every probe on the workload's shape and returns the
// per-individual cost of the evaluation path the engines take.
func runProbes(sh shape, seed uint64, sz sizes, out values) (evalPathNs float64, err error) {
	if sh.pop.Len() < 2 {
		return 0, errors.New("probe shape needs at least two individuals")
	}
	p := &prober{sh: sh, seed: seed, scale: sz.probe, out: out}
	p.rng()
	p.genome()
	p.operators()
	evalPathNs = p.problem()
	p.loop()
	p.migration()
	if err := p.persist(); err != nil {
		return 0, err
	}
	// The transport's sender and reader goroutines need scheduler threads
	// of their own (see the GOMAXPROCS trap in the README).
	prev := runtime.GOMAXPROCS(2 * wireIslands)
	defer runtime.GOMAXPROCS(prev)
	return evalPathNs, p.pump()
}
