package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/spec"
	"pga/internal/topology"
	"pga/internal/transport"
)

// dropShareTolerance is how far the in-process ring's drop share may
// sit from the two-process run's before the traced pass is rejected as
// not representative (the GOMAXPROCS trap; see the README).
const dropShareTolerance = 0.10

// reference is what the traced pass needs from the untraced
// repetitions of the same invocation.
type reference struct {
	wallS     float64  // median wall time
	evalsPerS float64  // median rate
	outputs   [][]byte // the first repetition's result files
	dropShare float64  // wire-ring2: median Dropped / Sent
}

// traced is the outcome of one workload's traced pass.
type traced struct {
	values    values
	recorders []*recorder
	attempted int
	failures  []string
}

func (t *traced) failf(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// marshalReports renders reports exactly as pgarun -out writes them.
func marshalReports(reports []*spec.Report) ([]byte, error) {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// specTimes accumulates the spec-layer timings of a replayed document
// set: the harness replays pgarun's own loop (ParseFile, Cells, Build,
// Built.Run, marshal) and times each call.
type specTimes struct {
	parseNs, expandNs, marshalNs float64
	buildNs, runS                []float64 // per cell
}

func (st *specTimes) emit(out values) {
	out["spec.parse_ns"] = st.parseNs
	out["spec.build_ns.p50"] = median(st.buildNs)
	out["spec.run_s"] = sum(st.runS)
	out["spec.marshal_ns"] = st.marshalNs
	build := sum(st.buildNs)
	total := st.parseNs + st.expandNs + build + st.marshalNs + sum(st.runS)*1e9
	out["spec.build_share"] = (st.parseNs + st.expandNs + build) / total
}

// runCell builds one spec and runs it under the recorder: the engine,
// where the model has one, is wrapped so each Step is a span, and each
// generation callback closes a generation span.
func runCell(s spec.RunSpec, rec *recorder, st *specTimes) (*spec.Built, *spec.Report, error) {
	start := time.Now()
	b, err := spec.Build(s)
	if err != nil {
		return nil, nil, err
	}
	st.buildNs = append(st.buildNs, float64(time.Since(start)))
	if b.Engine != nil {
		b.Engine = &tracedEngine{Engine: b.Engine, rec: rec}
	}
	run := rec.beginRun()
	rep := b.Run(spec.RunOpts{OnStep: func(core.Status) { rec.nextGeneration(run) }})
	rec.endRun(run)
	st.runS = append(st.runS, float64(rec.spans[run-1].End-rec.spans[run-1].Start)/1e9)
	return b, rep, nil
}

// stepMetrics emits the engine-wrapper metrics of the recorders' step
// spans and returns their sum and count.
func stepMetrics(recs []*recorder, out values) (stepS, steps float64) {
	var durations []float64
	for _, r := range recs {
		durations = append(durations, r.durations(spanStep)...)
	}
	out["ga.step_s.p50"] = percentile(durations, 0.5)
	out["ga.step_s.p99"] = percentile(durations, 0.99)
	return sum(durations), float64(len(durations))
}

// generationalCounts is how often one default generational engine calls
// each operator over gens generations: every generation breeds
// ceil((pop-1)/2) pairs, each pair costs two selections and two
// mutations, and a pair is crossed with probability rate and copied
// otherwise.
func generationalCounts(pop, gens int, rate float64) (selects, crossed, copies, mutations float64) {
	pairs := float64(gens) * math.Ceil(float64(pop-1)/2)
	return 2 * pairs, rate * pairs, 2*(1-rate)*pairs + float64(gens), 2 * pairs
}

// budget closes the per-layer budget of a generational run: the
// probe-derived busy time of operators and problems, and what is left
// of the measured step time.
func budget(out values, sh shape, evalPathNs float64, engines, pop, gens int, evals int64, stepS float64) {
	selects, crossed, copies, mutations := generationalCounts(pop, gens, sh.rate)
	ops := float64(engines) * (selects*out["operators.select_ns"] + crossed*out["operators.cross_ns"] +
		copies*out["genome.copy_ns"] + mutations*out["operators.mutate_ns"]) / 1e9
	probs := float64(evals) * evalPathNs / 1e9
	out["operators.busy_s"] = ops
	out["problems.busy_s"] = probs
	out["ga.step.self_s"] = stepS - ops - probs
}

// traceSingle is the traced pass of bitwise-gen and evalheavy-gen: the
// document pgarun ran, run in-process under the recorder, and the
// probes on the final population.
func traceSingle(wl string, doc document, seed uint64, sz sizes, ref reference) traced {
	t := traced{values: values{}, attempted: 1}
	out := t.values
	var st specTimes
	var before, after runtime.MemStats

	start := time.Now()
	f, err := spec.ParseFile(doc.JSON)
	if err != nil || f.Single == nil {
		t.failf("%s: traced parse: %v", wl, err)
		return t
	}
	st.parseNs = float64(time.Since(start))
	gens := f.Single.Budget.Generations
	rec := newRecorder(wl, 2*gens+16)
	runtime.ReadMemStats(&before)
	b, rep, err := runCell(*f.Single, rec, &st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.failf("%s: traced build: %v", wl, err)
		return t
	}
	mstart := time.Now()
	data, err := marshalReports([]*spec.Report{rep})
	st.marshalNs = float64(time.Since(mstart))
	wallS := time.Since(start).Seconds()
	t.recorders = []*recorder{rec}
	if err != nil {
		t.failf("%s: traced marshal: %v", wl, err)
		return t
	}
	// Tracing changes no RNG draw: the traced report is the untraced one.
	if len(ref.outputs) != 1 || !bytes.Equal(data, ref.outputs[0]) {
		t.failf("%s: traced in-process report differs from pgarun's result file", wl)
	}

	st.emit(out)
	stepS, steps := stepMetrics(t.recorders, out)
	out["ga.allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / steps
	out["ga.bytes_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / steps
	out["engine.loop.self_s"] = sum(st.runS) - stepS
	out["problems.evaluate.calls"] = float64(rep.Evaluations)
	out["trace_overhead_share"] = (wallS - ref.wallS) / ref.wallS

	sh, err := shapeOf(f.Single.Engine, b.Problem, b.Engine.Population())
	if err != nil {
		t.failf("%s: %v", wl, err)
		return t
	}
	evalPathNs, err := runProbes(sh, seed, sz, out)
	if err != nil {
		t.failf("%s: probes: %v", wl, err)
		return t
	}
	budget(out, sh, evalPathNs, 1, runPop, gens, rep.Evaluations, stepS)
	return t
}

// matrixGroup names the runtime.<group>.cell_ms family of a cell.
func matrixGroup(s spec.RunSpec) string {
	if s.Model == spec.ModelIslands && s.Islands != nil && s.Islands.Resilience != "" && s.Islands.Resilience != "none" {
		return "islands-supervised"
	}
	return s.Model
}

// traceMatrix is the traced pass of model-matrix: Sweep.Run's loop
// replayed document by document with every call timed, the result
// compared with pgarun's file, and the probes on the parallel
// document's base cell.
func traceMatrix(docs []document, seed uint64, sz sizes, ref reference) traced {
	t := traced{values: values{}}
	out := t.values
	var st specTimes
	cellMs := map[string][]float64{}
	rec := newRecorder(wlMatrix, 1<<17)
	t.recorders = []*recorder{rec}
	evals := int64(0)
	var probeBase *spec.RunSpec

	start := time.Now()
	for d, doc := range docs {
		pstart := time.Now()
		f, err := spec.ParseFile(doc.JSON)
		if err != nil || f.Sweep == nil {
			t.failf("%s/%s: traced parse: %v", wlMatrix, doc.Name, err)
			return t
		}
		st.parseNs += float64(time.Since(pstart))
		estart := time.Now()
		cells, cerr := f.Sweep.Cells()
		if cerr != nil {
			t.failf("%s/%s: traced expand: %v", wlMatrix, doc.Name, cerr)
			return t
		}
		st.expandNs += float64(time.Since(estart))
		if f.Sweep.Base.Model == spec.ModelParallel {
			base := f.Sweep.Base
			probeBase = &base
		}

		reports := make([]*spec.Report, 0, len(cells))
		for _, c := range cells {
			t.attempted++
			_, rep, err := runCell(c.Spec, rec, &st)
			if err != nil {
				t.failf("%s/%s cell %d: %v", wlMatrix, doc.Name, c.Index, err)
				continue
			}
			rep.Cell, rep.Replicate, rep.Overrides = c.Index, c.Replicate, c.Overrides
			reports = append(reports, rep)
			evals += rep.Evaluations
			g := matrixGroup(c.Spec)
			last := len(st.runS) - 1
			cellMs[g] = append(cellMs[g], st.buildNs[last]/1e6+st.runS[last]*1e3)
		}
		mstart := time.Now()
		data, err := marshalReports(reports)
		st.marshalNs += float64(time.Since(mstart))
		if err != nil {
			t.failf("%s/%s: traced marshal: %v", wlMatrix, doc.Name, err)
			continue
		}
		if d >= len(ref.outputs) || !bytes.Equal(data, ref.outputs[d]) {
			t.failf("%s/%s: traced in-process reports differ from pgarun's result file", wlMatrix, doc.Name)
		}
	}
	wallS := time.Since(start).Seconds()

	st.emit(out)
	out["spec.expand_ns"] = st.expandNs
	for _, g := range runtimeGroups {
		out["runtime."+g+".cell_ms"] = median(cellMs[g])
	}
	stepS, _ := stepMetrics(t.recorders, out)
	out["engine.loop.self_s"] = engineCellRunS(rec) - stepS
	out["problems.evaluate.calls"] = float64(evals)
	out["trace_overhead_share"] = (wallS - ref.wallS) / ref.wallS

	if probeBase == nil {
		t.failf("%s: no parallel document to take the probe shape from", wlMatrix)
		return t
	}
	b, err := spec.Build(*probeBase)
	if err != nil {
		t.failf("%s: probe shape: %v", wlMatrix, err)
		return t
	}
	sh, err := shapeOf(probeBase.Engine, b.Problem, b.Engine.Population())
	if err != nil {
		t.failf("%s: %v", wlMatrix, err)
		return t
	}
	if _, err := runProbes(sh, seed, sz, out); err != nil {
		t.failf("%s: probes: %v", wlMatrix, err)
	}
	return t
}

// engineCellRunS sums the run spans that contain at least one step
// span: the cells of the five engine models, whose loop overhead is
// run minus steps.
func engineCellRunS(rec *recorder) float64 {
	hasStep := map[int]bool{} // run span ID → saw a step under it
	genRun := map[int]int{}   // generation span ID → its run span
	for _, s := range rec.spans {
		switch s.Name {
		case spanGeneration:
			genRun[s.ID] = s.Parent
		case spanStep:
			hasStep[genRun[s.Parent]] = true
		}
	}
	total := 0.0
	for _, s := range rec.spans {
		if s.Name == spanRun && hasStep[s.ID] {
			total += float64(s.End-s.Start) / 1e9
		}
	}
	return total
}

// wireProblem is the instance every island of the ring shares.
func wireProblem(seed uint64) (core.Problem, error) {
	ps, err := problems.Lookup("nk")
	if err != nil {
		return nil, err
	}
	return ps.Make(wireBits, seed), nil
}

// wireEngine builds island self's engine exactly as cmd/pgaisland does:
// the canonical bit-string operators on the island's private stream.
func wireEngine(prob core.Problem, r *rng.Source) ga.Engine {
	return ga.NewGenerational(ga.Config{
		Problem: prob, PopSize: wirePop,
		Crossover: operators.Uniform{}, Mutator: operators.BitFlip{}, RNG: r,
	})
}

// islandOutcome is what one in-process island reports back.
type islandOutcome struct {
	rec   *recorder
	res   *island.Result
	net   core.NetStats
	final *core.Population
}

// runTracedIsland runs one island of the in-process ring on the calling
// goroutine. Everything that draws from the island's streams is built
// here, so no stream crosses a goroutine.
func runTracedIsland(seed uint64, gens, self int, ep transport.Endpoint, topo topology.Topology) islandOutcome {
	prob, _ := wireProblem(seed) // the caller already looked "nk" up
	engineRNG, migRNG := island.WireStreams(seed, wireIslands, self)
	rec := newRecorder(fmt.Sprintf("%s/island%d", wlWire, self), 8*gens+16)
	eng := &tracedEngine{Engine: wireEngine(prob, engineRNG), rec: rec}
	tep := &tracedEndpoint{Endpoint: ep, rec: rec}
	run := rec.beginRun()
	res := island.RunWire(island.WireConfig{
		Self:     self,
		Topology: topo,
		Endpoint: tep,
		Policy:   migration.Policy{Interval: wireEvery, Count: wireCount},
		Engine:   eng,
		MigRNG:   migRNG,
		MaxGens:  gens,
		Observers: []engine.Observer{engine.Funcs{Generation: func(s core.Status) {
			if s.Generation > 0 {
				rec.nextGeneration(run)
			}
		}}},
	})
	rec.endRun(run)
	// Like pgaisland: close first, so queued batches drain or are
	// counted dropped, then read the accounting.
	ep.Close()
	return islandOutcome{rec: rec, res: res, net: ep.Stats(), final: eng.Population()}
}

// traceWire is the traced pass of wire-ring2: the same two islands in
// this process, each on its own goroutine, over real loopback sockets,
// with the engine, the endpoint and the listener wrapped.
func traceWire(seed uint64, sz sizes, ref reference) traced {
	t := traced{values: values{}, attempted: wireIslands}
	out := t.values
	prob, err := wireProblem(seed)
	if err != nil {
		t.failf("%s: %v", wlWire, err)
		return t
	}

	// Two CPU-bound island goroutines on GOMAXPROCS=2 starve the
	// transport's sender and reader goroutines (60% of batches dropped
	// in-process against 4-5% across two processes).
	prev := runtime.GOMAXPROCS(2 * wireIslands)
	defer runtime.GOMAXPROCS(prev)

	var wireBytes atomic.Int64
	eps, err := tcpPair(seed, func(_ int, ln net.Listener) net.Listener {
		return countingListener{Listener: ln, bytes: &wireBytes}
	})
	if err != nil {
		t.failf("%s: %v", wlWire, err)
		return t
	}
	topo := topology.Ring(wireIslands)
	outcomes := make([]islandOutcome, wireIslands)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = runTracedIsland(seed, sz.wireGens, i, eps[i], topo)
		}(i)
	}
	wg.Wait()
	wallS := time.Since(start).Seconds()

	var net core.NetStats
	var sends, recvs []float64
	evals, genS := int64(0), 0.0
	for i, o := range outcomes {
		t.recorders = append(t.recorders, o.rec)
		if o.res.Generations != sz.wireGens {
			t.failf("%s: traced island %d stopped at generation %d of %d", wlWire, i, o.res.Generations, sz.wireGens)
		}
		net.Add(o.net)
		evals += o.res.Evaluations
		sends = append(sends, o.rec.durations(spanSend)...)
		recvs = append(recvs, o.rec.durations(spanRecv)...)
		genS += sum(o.rec.durations(spanGeneration))
	}
	stepS, _ := stepMetrics(t.recorders, out)
	out["transport.send_ns.p50"] = percentile(sends, 0.5) * 1e9
	out["transport.send_ns.p99"] = percentile(sends, 0.99) * 1e9
	out["transport.recv_ns.p50"] = percentile(recvs, 0.5) * 1e9
	out["transport.sent"] = float64(net.Sent)
	out["transport.delivered"] = float64(net.Delivered)
	out["transport.received"] = float64(net.Received)
	out["transport.dropped"] = float64(net.Dropped)
	out["transport.reconnects"] = float64(net.Reconnects)
	dropShare := 0.0
	if net.Sent > 0 {
		dropShare = float64(net.Dropped) / float64(net.Sent)
	}
	out["transport.drop_share"] = dropShare
	if net.Delivered > 0 {
		out["transport.wire_bytes_per_batch"] = float64(wireBytes.Load()) / float64(net.Delivered)
	} else {
		out["transport.wire_bytes_per_batch"] = 0
	}
	out["island.migrate.self_s"] = genS - stepS
	out["problems.evaluate.calls"] = float64(evals)
	out["trace_overhead_share"] = (wallS - ref.wallS) / ref.wallS
	// (Only at full size: the smoke test's ring ends before its sockets
	// have connected, so its drop shares say nothing.)
	if sz.full && math.Abs(dropShare-ref.dropShare) > dropShareTolerance {
		t.failf("%s: in-process ring dropped %.1f%% of its batches, the two-process run %.1f%%: traced pass not representative",
			wlWire, 100*dropShare, 100*ref.dropShare)
	}

	// The same island with nobody to talk to: what the wire costs is the
	// gap between this rate and the ring's.
	soloGens := sz.wireGens / 4
	if soloGens < 1 {
		soloGens = 1
	}
	sstart := time.Now()
	solo := runTracedIsland(seed, soloGens, 0, transport.NewLoopback(wireIslands, 1)[0], topology.Isolated(wireIslands))
	soloRate := float64(solo.res.Evaluations) / time.Since(sstart).Seconds()
	out["island.solo_evals_per_s"] = soloRate
	out["island.wire_cost_share"] = 1 - ref.evalsPerS/wireIslands/soloRate

	sh, err := shapeOf(spec.EngineSpec{}, prob, outcomes[0].final)
	if err != nil {
		t.failf("%s: %v", wlWire, err)
		return t
	}
	evalPathNs, err := runProbes(sh, seed, sz, out)
	if err != nil {
		t.failf("%s: probes: %v", wlWire, err)
		return t
	}
	budget(out, sh, evalPathNs, wireIslands, wirePop, sz.wireGens, evals, stepS)
	return t
}
