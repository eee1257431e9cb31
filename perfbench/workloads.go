package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/flowbatch"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

// The workloads. Each one's grid and its reason for being here:
//
//   - qbone-paper: Fig. 7 (Lost @ 1.7 Mbps over the QBone) on every
//     other token rate of the paper's sweep × B ∈ {3000, 4500}, each
//     point averaged over 3 seeds exactly as experiment.runQBonePoint
//     does. The single-flow per-packet datapath under most load: sim
//     calendar, links, EF priority queues on 4 hops with Poisson cross
//     load, the policer, the paced server and the client. No flowbatch,
//     no ptrace.
//   - fleet-mixture: one nflow-fleet point at N = 50k (the 13 Gbps
//     knee): 85% viewers + 15% elephants on the batched mixture fan-out
//     with aggregated per-class stats. flowbatch and a dense, adaptive
//     calendar over ~10⁵ resident flows; no server, client decode,
//     render or vqm.
//   - tandem-traced: the tandem two-border point (1.0 Mbps, B = 3000,
//     second border on) with a full packet capture spilled as binary v2
//     to memory, digested by ptrace.AnalyzeStream and checked by
//     ptrace.CompareSummaries at zero thresholds. The only workload that
//     writes and reads traces.
var workloadList = []string{"qbone-paper", "fleet-mixture", "tandem-traced"}

func workloadNames() string { return strings.Join(workloadList, ", ") }

// newWorkload returns the named workload whose inputs derive from seed;
// withExpected loads the stored outputs when seed is the default one.
func newWorkload(name string, seed uint64, withExpected bool) workload {
	b := base{wname: name, seed: seed, withExpected: withExpected && seed == defaultSeed,
		pool: packet.NewPool()}
	switch name {
	case "qbone-paper":
		return &qbonePaper{base: b}
	case "fleet-mixture":
		return &fleetMixture{base: b, n: fleetN}
	case "tandem-traced":
		return &tandemTraced{base: b}
	}
	return nil
}

// base is what every workload shares: its seed, its stored outputs and
// one packet arena reused across points, as a runner worker does.
type base struct {
	wname        string
	seed         uint64
	withExpected bool
	exp          expected
	pool         *packet.Pool
}

func (b *base) name() string       { return b.wname }
func (b *base) expected() expected { return b.exp }

// loadStored loads the workload's stored outputs, when it checks them.
func (b *base) loadStored() error {
	if !b.withExpected {
		return nil
	}
	var err error
	b.exp, err = loadExpected(b.wname)
	return err
}

// evaluation mirrors experiment.Evaluate: MPEG decode dependencies,
// renderer concealment, then VQM scoring against the reference, each
// public call in its own span.
type evaluation struct {
	FrameLoss   float64 `json:"frame_loss"`
	Quality     float64 `json:"quality"`
	PacketLoss  float64 `json:"packet_loss"`
	Calibration int     `json:"calibration"`
}

func evaluate(tr *tracer, ft *trace.Trace, recv, ref *video.Encoding) evaluation {
	if recv.CBR {
		tr.span("client.decode", func() { ft = client.DecodeMPEG(ft, recv) })
	}
	var d *render.Displayed
	tr.span("render.conceal", func() { d = render.Conceal(ft, render.DefaultOptions()) })
	var res *vqm.Result
	tr.span("vqm.score", func() { res = vqm.Score(d, recv, ref, vqm.Options{}) })
	return evaluation{FrameLoss: ft.FrameLossFraction(), Quality: res.Index, Calibration: res.CalibrationFailures}
}

// ---- qbone-paper ----

type qbonePaper struct {
	base
	enc    *video.Encoding
	tokens []units.BitRate
	depths []units.ByteSize
}

// qboneRuns is the seeds averaged per point, as in the paper figures.
const qboneRuns = 3

func (w *qbonePaper) setup() error {
	video.ResetEncodingCache()
	w.enc = video.CachedCBR(video.Lost(), 1.7e6)
	w.tokens = experiment.Scale(experiment.TokenSweep(1200, 2200, 100), 2)
	w.depths = experiment.StandardDepths()
	return w.loadStored()
}

func (w *qbonePaper) points() int { return len(w.tokens) * len(w.depths) }

// qbonePoint is one seed-averaged grid point, as experiment reports it.
type qbonePoint struct {
	TokenBps int64 `json:"token_bps"`
	Depth    int64 `json:"depth"`
	evaluation
	Events uint64 `json:"events"`
}

func (w *qbonePaper) run(i int, tr *tracer) (pointResult, error) {
	tok, depth := w.tokens[i%len(w.tokens)], w.depths[i/len(w.tokens)]
	pt := qbonePoint{TokenBps: int64(tok), Depth: int64(depth)}
	var res pointResult
	for r := uint64(0); r < qboneRuns; r++ {
		ev, c, qs, err := w.runOnce(tr, tok, depth, w.seed+r)
		if err != nil {
			return res, fmt.Errorf("seed %d: %w", w.seed+r, err)
		}
		// Same accumulation order as experiment's averagePoint, so the
		// averages are bit-identical.
		pt.FrameLoss += ev.FrameLoss
		pt.Quality += ev.Quality
		pt.PacketLoss += ev.PacketLoss
		pt.Calibration += ev.Calibration
		pt.Events += c.SimEvents
		res.counts.add(c)
		res.queues = append(res.queues, qs)
	}
	pt.FrameLoss /= qboneRuns
	pt.Quality /= qboneRuns
	pt.PacketLoss /= qboneRuns
	res.out = pt
	return res, nil
}

// runOnce is experiment.runQBonePoint through public calls.
func (w *qbonePaper) runOnce(tr *tracer, tok units.BitRate, depth units.ByteSize, seed uint64) (evaluation, counters, sim.QueueStats, error) {
	var q *topology.QBone
	tr.span("topology.build", func() {
		q = topology.BuildQBone(topology.QBoneConfig{
			Seed: seed, Enc: w.enc, TokenRate: tok, Depth: depth, Pool: w.pool,
		})
		q.Client.Tolerance = client.SliceTolerance
	})
	tr.span("topology.run", q.Run)
	ev := evaluate(tr, q.Client.Trace(), w.enc, w.enc)
	ev.PacketLoss = q.Policer.LossFraction()

	pol := q.Policer
	c := counters{
		SimEvents:      q.Sim.Fired(),
		PolicerPassed:  uint64(pol.Passed),
		PolicerDropped: uint64(pol.Dropped),
		BottleneckSent: uint64(q.Net.Link("access").Sent),
	}
	// Conservation: every packet the server sent reaches the policer
	// (the campus segment is lossless).
	if offered := pol.Passed + pol.Dropped; offered != q.Server.Sent {
		return ev, c, sim.QueueStats{}, fmt.Errorf("policer passed %d + dropped %d != offered %d", pol.Passed, pol.Dropped, q.Server.Sent)
	}
	return ev, c, q.Sim.QueueStats(), nil
}

// ---- fleet-mixture ----

type fleetMixture struct {
	base
	n       int // total virtual flows
	classes []topology.FlowClass
}

// fleetN is the fleet point's total virtual-flow count: the 13 Gbps
// knee of the nflow-fleet sweep.
const fleetN = 50000

func (w *fleetMixture) setup() error {
	video.ResetEncodingCache()
	spec := experiment.NFlowFleetSpec()
	w.classes = fleetClasses(spec, w.n)
	for _, c := range w.classes {
		flowbatch.CachedPacedSchedule(c.Enc)
	}
	return w.loadStored()
}

// fleetClasses splits n flows by the spec's class shares exactly as the
// nflow-fleet scenario does (the last class absorbs rounding; starts
// spread over the spec's start window).
func fleetClasses(spec experiment.FleetSpec, n int) []topology.FlowClass {
	out := make([]topology.FlowClass, len(spec.Classes))
	rem := n
	for ci, fc := range spec.Classes {
		cn := int(float64(n)*fc.Share + 0.5)
		if ci == len(spec.Classes)-1 || cn > rem {
			cn = rem
		}
		rem -= cn
		stagger := units.Time(1)
		if cn > 0 {
			if stagger = spec.StartWindow / units.Time(cn); stagger <= 0 {
				stagger = 1
			}
		}
		out[ci] = topology.FlowClass{
			Name: fc.Name, Enc: video.CachedCBR(fc.Clip, fc.EncRate),
			N: cn, TokenRate: fc.TokenRate, Depth: spec.Depth,
			Truncate: spec.Truncate,
			Phase:    units.Time(ci) * units.Millisecond,
			Stagger:  stagger,
		}
	}
	return out
}

func (w *fleetMixture) points() int { return 1 }

// fleetClass is one class's delivery outcome.
type fleetClass struct {
	Name             string `json:"name"`
	Flows            int    `json:"flows"`
	ScheduledPackets int64  `json:"scheduled_packets"`
	Packets          int64  `json:"packets"`
	Bytes            int64  `json:"bytes"`
}

type fleetPoint struct {
	Classes     []fleetClass `json:"classes"`
	PolicerLoss float64      `json:"policer_loss"`
	Events      uint64       `json:"events"`
}

func (w *fleetMixture) run(_ int, tr *tracer) (pointResult, error) {
	spec := experiment.NFlowFleetSpec()
	var m *topology.MultiFlow
	tr.span("topology.build", func() {
		m = topology.BuildMultiFlow(topology.MultiFlowConfig{
			Seed: w.seed, Classes: w.classes, Depth: spec.Depth,
			BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
			BELoad: spec.BELoad, Pool: w.pool,
			Batch: true, AggregateStats: true,
		})
	})
	tr.span("topology.run", m.Run)
	var res pointResult
	if tr != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.heapBytes = ms.HeapAlloc
	}

	pt := fleetPoint{PolicerLoss: m.AggregatePolicerLoss(), Events: m.Sim.Fired()}
	var passed, dropped, delivered int64
	for _, p := range m.Policers {
		passed += int64(p.Passed)
		dropped += int64(p.Dropped)
	}
	for ci, agg := range m.Aggregates {
		c := &m.Mixture.Classes[ci]
		fc := fleetClass{
			Name: m.ClassNames[ci], Flows: c.N,
			ScheduledPackets: int64(c.N) * int64(len(c.Sched.Entries)),
			Packets:          agg.Packets, Bytes: agg.Bytes,
		}
		if fc.Packets > fc.ScheduledPackets {
			return res, fmt.Errorf("class %s delivered %d > scheduled %d", fc.Name, fc.Packets, fc.ScheduledPackets)
		}
		delivered += fc.Packets
		pt.Classes = append(pt.Classes, fc)
	}
	if offered := int64(m.Mixture.TotalSent()); passed+dropped != offered {
		return res, fmt.Errorf("policers passed %d + dropped %d != offered %d", passed, dropped, offered)
	}
	if delivered > passed {
		return res, fmt.Errorf("delivered %d > policers passed %d", delivered, passed)
	}
	res.out = pt
	res.counts = counters{
		SimEvents:      m.Sim.Fired(),
		PolicerPassed:  uint64(passed),
		PolicerDropped: uint64(dropped),
		BottleneckSent: uint64(m.Bottleneck.Sent),
		VFlows:         uint64(m.Mixture.TotalFlows()),
	}
	res.queues = []sim.QueueStats{m.Sim.QueueStats()}
	return res, nil
}

// ---- tandem-traced ----

type tandemTraced struct {
	base
	enc *video.Encoding
	// ref is the digest every capture must reproduce at zero
	// thresholds: the stored golden on the default seed, otherwise the
	// first capture of the run.
	ref *ptrace.Summary
	buf bytes.Buffer // the in-memory spill target, reused across runs
}

const (
	tandemToken units.BitRate  = 1.0e6
	tandemDepth units.ByteSize = 3000
)

func (w *tandemTraced) setup() error {
	video.ResetEncodingCache()
	w.enc = video.CachedCBR(video.Lost(), 1.0e6)
	err := w.loadStored()
	w.ref = w.exp.digest
	return err
}

func (w *tandemTraced) points() int { return 1 }

// tandemPoint is the two-border point's outcome, PacketLoss counted
// across both borders as experiment's tandem scenario does.
type tandemPoint struct {
	evaluation
	Events      uint64 `json:"events"`
	TraceEvents uint64 `json:"trace_events"`
	TraceBytes  int    `json:"trace_bytes"`
}

func (w *tandemTraced) build(rec *ptrace.Recorder) *topology.Tandem {
	// Packet ids are a process-wide counter; restarting it makes every
	// repeat's capture byte-identical.
	packet.ResetIDs()
	return topology.BuildTandem(topology.TandemConfig{
		Seed: w.seed, Enc: w.enc, TokenRate: tandemToken, Depth: tandemDepth,
		SecondBorder: true, Pool: w.pool, Trace: rec,
	})
}

func (w *tandemTraced) run(_ int, tr *tracer) (pointResult, error) {
	var res pointResult
	var t *topology.Tandem
	var rec *ptrace.Recorder
	w.buf.Reset()
	tr.span("topology.build", func() {
		rec = ptrace.NewRecorder(ptrace.Config{})
		rec.SpillTo(&w.buf)
		t = w.build(rec)
	})
	var err error
	var captured uint64
	tr.span("topology.run", func() {
		t.Run()
		captured = rec.Spilled()
		err = rec.FinishSpill()
	})
	if err != nil {
		return res, fmt.Errorf("sealing the capture: %w", err)
	}
	ev := evaluate(tr, t.Client.Trace(), w.enc, w.enc)
	offered := t.Border1.Passed + t.Border1.Dropped
	dropped := t.Border1.Dropped + t.Border2.Dropped
	ev.PacketLoss = float64(dropped) / float64(offered)

	var sum *ptrace.Summary
	var info ptrace.StreamInfo
	tr.span("ptrace.analyze", func() {
		sum, info, err = ptrace.AnalyzeStream(bytes.NewReader(w.buf.Bytes()), 0)
	})
	if err != nil {
		return res, fmt.Errorf("analyzing the capture: %w", err)
	}
	if w.ref == nil {
		w.ref = sum
	}
	var diff *ptrace.Diff
	tr.span("ptrace.compare", func() { diff = ptrace.CompareSummaries(w.ref, sum, ptrace.Thresholds{}) })
	if !diff.Clean() {
		return res, fmt.Errorf("trace digest differs from the reference:\n%s", diff.Format(10))
	}

	// Conservation: the digest accounts for every captured event, and
	// the borders for every packet the server sent.
	var total uint64
	for _, h := range sum.Hops {
		for _, n := range h.Counts {
			total += uint64(n)
		}
	}
	if total != info.Events || info.Events != captured {
		return res, fmt.Errorf("digest totals %d, decoded %d, captured %d", total, info.Events, captured)
	}
	if offered != t.Server.Sent {
		return res, fmt.Errorf("border1 passed + dropped %d != offered %d", offered, t.Server.Sent)
	}
	if b2 := t.Border2.Passed + t.Border2.Dropped; b2 > t.Border1.Passed {
		return res, fmt.Errorf("border2 saw %d > border1 passed %d", b2, t.Border1.Passed)
	}

	res.out = tandemPoint{evaluation: ev, Events: t.Sim.Fired(),
		TraceEvents: info.Events, TraceBytes: w.buf.Len()}
	res.digest = sum
	res.counts = counters{
		SimEvents:      t.Sim.Fired(),
		PolicerPassed:  uint64(t.Border1.Passed + t.Border2.Passed),
		PolicerDropped: uint64(dropped),
		BottleneckSent: uint64(t.Net.Link("access").Sent),
		TraceEvents:    info.Events,
		TraceBytes:     uint64(w.buf.Len()),
	}
	res.queues = []sim.QueueStats{t.Sim.QueueStats()}
	return res, nil
}

// twin runs the same point without a capture; the traced phase
// subtracts its run time from the captured run's to isolate emission
// and v2 encoding (ptrace.emit_s).
func (w *tandemTraced) twin(_ int, tr *tracer) {
	t := w.build(nil)
	tr.span("twin.run", t.Run)
}
