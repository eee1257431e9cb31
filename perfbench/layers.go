package main

import (
	"fmt"
	"os"
	"time"
)

// tracedRun is the --trace 1 measurement: an untraced phase and a
// traced phase of half the budget each, then the layer ladder. The
// per-layer metrics come from the traced phase; its wall time minus the
// untraced phase's is the tracing overhead.
func (h *harness) tracedRun(budget time.Duration, stem string) (map[string]metric, error) {
	untraced := h.measure(budget/2, nil)

	tr := newTracer(h.w.name())
	stop, err := tr.profile(stem)
	if err != nil {
		return nil, err
	}
	traced := h.measure(budget/2, tr)
	if err := stop(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: CPU profile (labels workload, span) in %s/%s.pprof\n", outDir, stem)

	m := layerMetrics(traced)
	m["trace.overhead_s"] = metric{traced.wallS() - untraced.wallS(), "s"}
	for _, r := range runLadder() {
		m[r.name] = metric{r.ns, "ns"}
	}
	return m, nil
}

// layerMetrics folds the traced phase into the per-layer metrics: the
// cost of one pass over the workload's grid, per layer. Layers a
// workload does not exercise read 0.
func layerMetrics(p phase) map[string]metric {
	span := func(name string) float64 {
		return p.perPass(func(s sample) float64 { return s.spans[name] })
	}
	count := func(f func(counters) uint64) float64 {
		return p.perPass(func(s sample) float64 { return float64(f(s.res.counts)) })
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	events := count(func(c counters) uint64 { return c.SimEvents })
	var rebases, overflowed, scheduled float64
	var widths []float64
	for _, ss := range p.samples {
		if len(ss) == 0 {
			continue
		}
		// Queue telemetry is deterministic: any repeat will do.
		for _, q := range ss[0].res.queues {
			rebases += float64(q.Rebases)
			overflowed += float64(q.Overflowed)
			scheduled += float64(q.Scheduled)
			widths = append(widths, q.Width.Seconds()*1e6)
		}
	}
	runS := span("topology.run")
	vflows := count(func(c counters) uint64 { return c.VFlows })
	traceEvents := count(func(c counters) uint64 { return c.TraceEvents })
	emitS := 0.0
	if twin := span("twin.run"); twin > 0 {
		emitS = runS - twin
	}

	return map[string]metric{
		"sim.events":           {events, "count"},
		"sim.ns_per_event":     {per(runS*1e9, events), "ns"},
		"sim.queue_rebases":    {rebases, "count"},
		"sim.queue_width_us":   {median(widths), "us"},
		"sim.overflow_ratio":   {per(overflowed, scheduled), "ratio"},
		"topology.build_s":     {span("topology.build"), "s"},
		"topology.run_s":       {runS, "s"},
		"tokenbucket.passed":   {count(func(c counters) uint64 { return c.PolicerPassed }), "count"},
		"tokenbucket.dropped":  {count(func(c counters) uint64 { return c.PolicerDropped }), "count"},
		"link.bottleneck_sent": {count(func(c counters) uint64 { return c.BottleneckSent }), "count"},

		"flowbatch.vflows":           {vflows, "count"},
		"flowbatch.events_per_vflow": {per(events, vflows), "count"},
		"flowbatch.bytes_per_vflow": {per(p.perPass(func(s sample) float64 {
			return float64(s.res.heapBytes)
		}), vflows), "B"},

		"client.decode_s":             {span("client.decode"), "s"},
		"render.conceal_s":            {span("render.conceal"), "s"},
		"vqm.score_s":                 {span("vqm.score"), "s"},
		"ptrace.events":               {traceEvents, "count"},
		"ptrace.bytes_per_event":      {per(count(func(c counters) uint64 { return c.TraceBytes }), traceEvents), "B"},
		"ptrace.emit_s":               {emitS, "s"},
		"ptrace.analyze_ns_per_event": {per(span("ptrace.analyze")*1e9, traceEvents), "ns"},
		"ptrace.compare_s":            {span("ptrace.compare"), "s"},

		"runtime.allocs_per_event": {per(p.perPass(func(s sample) float64 { return s.mem.mallocs }), events), "count"},
		"runtime.alloc_bytes":      {p.perPass(func(s sample) float64 { return s.mem.allocBytes }), "B"},
		"runtime.gc_cycles":        {p.perPass(func(s sample) float64 { return s.mem.gcCycles }), "count"},
	}
}
