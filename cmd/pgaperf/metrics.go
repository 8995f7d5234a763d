package main

import (
	"slices"

	"pga/internal/spec"
)

// Workload names. Later issues cite them, so they are fixed.
const (
	wlBitwise   = "bitwise-gen"
	wlEvalHeavy = "evalheavy-gen"
	wlWire      = "wire-ring2"
	wlMatrix    = "model-matrix"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wlBitwise, wlEvalHeavy, wlWire, wlMatrix}

// workloadWhy is the one-line reason each workload exists (the README
// has the long form); BENCHMARK.json repeats it.
var workloadWhy = map[string]string{
	wlBitwise:   "rng+operators+genome do ~97% of the CPU: the default bit-wise uniform+bitflip path, with an exact evals_to_target",
	wlEvalHeavy: "problems.Evaluate+BitString.Get are ~82% of the CPU: the mirror image, flat under operator/rng changes",
	wlWire:      "two real pgaisland processes over loopback TCP: the only run with transport, persist and migration on the blocking path",
	wlMatrix:    "258 short sweep cells over all nine spec models: set-up, spec parse/build and every runtime's stepper dominate",
}

// metricDef declares one metric: its name, unit, which direction is
// better, and the workloads it is defined on (nil: all of them).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	// Bound is the share of the median by which an end-to-end metric
	// may worsen before a change counts as a regression (0: the metric
	// is a count that must repeat exactly, or a per-layer metric).
	Bound float64
	On    []string
}

// definedOn reports whether the metric applies to workload wl.
func (m metricDef) definedOn(wl string) bool {
	return m.On == nil || slices.Contains(m.On, wl)
}

// universal reports whether the metric is defined on every workload —
// the subset BENCHMARK.json lists, because the driver asks every
// workload for every metric it names.
func (m metricDef) universal() bool { return m.On == nil }

var (
	onRuns    = []string{wlBitwise, wlEvalHeavy, wlWire}   // long single-engine runs
	onPgarun  = []string{wlBitwise, wlEvalHeavy, wlMatrix} // spec documents through pgarun
	onSerial  = []string{wlBitwise, wlEvalHeavy}
	onBatched = []string{wlBitwise, wlMatrix} // probe shape is onemax, a core.BatchProblem
)

// endToEnd are the metrics a user of the system sees. The bounds are
// sized from this host's noise, not from taste: single repetitions of
// fixed work vary +-10% here, the median of an invocation's repetitions
// spread 3-14% over ten seeds, and the host has slow phases of 15-18%
// that last minutes and move whole sets of runs. The rates and the
// milliseconds-long setup_s therefore take the widest bound a benchmark
// may declare; peak_rss_mb, which spreads about 2%, keeps 15%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_mevals", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "evals_to_target", Unit: "count", Better: "lower", On: []string{wlBitwise}},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: []string{wlMatrix}},
	{Name: "batches_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: []string{wlWire}},
}

// runtimeGroups are the model-matrix cell families, one
// runtime.<group>.cell_ms metric each: the nine spec model strings plus
// the supervised island cells.
var runtimeGroups = []string{
	spec.ModelGenerational, spec.ModelSteadyState, spec.ModelParallel, spec.ModelMasterSlave,
	spec.ModelCellular, spec.ModelIslands, "islands-supervised", spec.ModelP2P, spec.ModelHGA, spec.ModelSIM,
}

// perLayer are the metrics of single layers (the repo's package names).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ns := func(name string, on []string) metricDef {
		return metricDef{Name: name, Unit: "ns", Better: "lower", On: on}
	}
	sec := func(name string, on []string) metricDef {
		return metricDef{Name: name, Unit: "s", Better: "lower", On: on}
	}
	count := func(name, better string, on []string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: better, On: on}
	}
	defs := []metricDef{
		ns("rng.chance_ns", nil),
		ns("rng.uint64_ns", nil),
		ns("genome.get_ns", nil),
		ns("genome.set_ns", nil),
		ns("genome.copy_ns", nil),
		ns("operators.select_ns", nil),
		ns("operators.cross_ns", nil),
		ns("operators.mutate_ns", nil),
		sec("operators.busy_s", onRuns),
		ns("problems.evaluate_ns", nil),
		ns("problems.batch_evaluate_ns", onBatched),
		count("problems.evaluate.calls", "lower", nil),
		sec("problems.busy_s", onRuns),
		ns("core.evaluator_overhead_ns", nil),
		sec("ga.step_s.p50", nil),
		sec("ga.step_s.p99", nil),
		sec("ga.step.self_s", onRuns),
		count("ga.allocs_per_step", "lower", onSerial),
		{Name: "ga.bytes_per_step", Unit: "B", Better: "lower", On: onSerial},
		sec("engine.loop.self_s", onPgarun),
		ns("engine.loop_ns_per_gen.obs0", nil),
		ns("engine.loop_ns_per_gen.obs4", nil),
		ns("spec.parse_ns", onPgarun),
		ns("spec.expand_ns", []string{wlMatrix}),
		ns("spec.build_ns.p50", onPgarun),
		sec("spec.run_s", onPgarun),
		ns("spec.marshal_ns", onPgarun),
		{Name: "spec.build_share", Unit: "share", Better: "lower", On: onPgarun},
	}
	for _, g := range runtimeGroups {
		defs = append(defs, metricDef{Name: "runtime." + g + ".cell_ms", Unit: "ms", Better: "lower", On: []string{wlMatrix}})
	}
	onWire := []string{wlWire}
	defs = append(defs,
		ns("migration.pick_ns", nil),
		ns("migration.clone_ns", nil),
		ns("migration.integrate_ns", nil),
		ns("persist.marshal_ns", nil),
		ns("persist.unmarshal_ns", nil),
		metricDef{Name: "persist.payload_bytes", Unit: "B", Better: "lower"},
		ns("persist.real.marshal_ns", nil),
		ns("persist.real.unmarshal_ns", nil),
		ns("persist.perm.marshal_ns", nil),
		ns("persist.perm.unmarshal_ns", nil),
		ns("transport.send_ns.p50", onWire),
		ns("transport.send_ns.p99", onWire),
		ns("transport.recv_ns.p50", onWire),
		count("transport.sent", "higher", onWire),
		count("transport.delivered", "higher", onWire),
		count("transport.received", "higher", onWire),
		count("transport.dropped", "lower", onWire),
		metricDef{Name: "transport.drop_share", Unit: "share", Better: "lower", On: onWire},
		count("transport.reconnects", "lower", onWire),
		metricDef{Name: "transport.wire_bytes_per_batch", Unit: "B", Better: "lower", On: onWire},
		metricDef{Name: "transport.pump_batches_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "transport.pump_latency_ms.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "transport.pump_latency_ms.p99", Unit: "ms", Better: "lower"},
		metricDef{Name: "transport.loopback_pump_batches_per_s", Unit: "1/s", Better: "higher"},
		sec("island.migrate.self_s", onWire),
		metricDef{Name: "island.solo_evals_per_s", Unit: "1/s", Better: "higher", On: onWire},
		metricDef{Name: "island.wire_cost_share", Unit: "share", Better: "lower", On: onWire},
		metricDef{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
	)
	return defs
}
