package main

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/experiments"
)

// perLayer are the traced run's metrics, named by module. README.md maps
// each to the end-to-end metric and workload it should move. Every
// workload prints all of them; a layer the workload does not exercise
// reads 0. The experiment, oracle and rule names come from the program,
// and a test keeps BENCHMARK.json in step with them.
var perLayer = func() []metric {
	var ms []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{n, unit})
		}
	}
	add("count", "sim.events", "sim.resumes", "sim.callbacks", "sim.pending_max")
	add("s", "sim.virtual_s")
	add("ns", "sim.ns_per_event")
	for _, c := range hostClasses {
		add("s", "sim.host_s."+c)
	}
	add("count", "datatap.steps_written", "datatap.steps_pulled", "datatap.requeued",
		"datatap.hub.published", "datatap.hub.delivered", "datatap.hub.spilled",
		"datatap.hub.spill_reads", "datatap.hub.reclaimed")
	add("bytes", "bp.spill_bytes")
	add("count", "core.rounds", "core.round_retries", "core.actions")
	add("s", "core.build_s", "core.run_s", "scenario.load_s")
	add("count", "cluster.messages")
	add("bytes", "cluster.bytes")
	add("count", "evpath.monitor_sent")
	for _, x := range experiments.All() {
		add("s", "experiments."+x.ID+"_s")
	}
	add("s", "chaos.generate_s", "chaos.run_s", "chaos.check_s")
	for _, o := range chaos.DefaultOracles() {
		add("s", "chaos.oracle."+o.Name+"_s")
	}
	add("count", "chaos.faults", "chaos.violations", "trace.records")
	add("s", "analysis.load_s", "analysis.program_s", "analysis.rules_s")
	for _, a := range analysis.Analyzers() {
		add("s", "analysis.rule."+a.Name+"_s")
	}
	add("count", "analysis.packages", "analysis.files", "analysis.lines", "analysis.findings", "analysis.suppressed")
	add("count", "runtime.gc_cycles", "runtime.goroutines_leaked")
	add("s", "runtime.gc_pause_s", "trace.overhead_s")
	return ms
}()

// untracedPrefix marks layer timings taken from untraced ops.
const untracedPrefix = "untraced:"

// untracedLayers are timed in every op, and are reported from the
// untraced ones so the tracer's own cost does not inflate them.
var untracedLayers = []string{"scenario.load_s", "core.build_s", "core.run_s"}

// layerMetrics folds a traced run into the per-layer metrics: the median
// of each timing, the counts of the first traced op (the determinism
// guard has checked that every later one repeats them), and the derived
// per-event cost, GC figures and tracing overhead.
func layerMetrics(r *runReport, timings map[string][]float64, counts map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range timings {
		if !strings.HasPrefix(k, untracedPrefix) {
			m[k] = median(v)
		}
	}
	for k, v := range counts {
		m[k] = v
	}
	for _, k := range untracedLayers {
		if v, ok := timings[untracedPrefix+k]; ok {
			m[k] = median(v)
		}
	}
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = m["core.run_s"] / ev * 1e9
	}
	m["runtime.gc_cycles"] = median(field(r.samples, func(s sample) float64 { return s.gcCycles }))
	m["runtime.gc_pause_s"] = median(field(r.samples, func(s sample) float64 { return s.gcPause }))
	m["runtime.goroutines_leaked"] = median(field(r.samples, func(s sample) float64 { return s.leaked }))
	wall := func(s sample) float64 { return s.wall }
	m["trace.overhead_s"] = median(field(r.traced, wall)) - median(field(r.samples, wall))
	return m
}
