package experiment

import (
	"math"
	"sort"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The mixture differential harness: the K-class generalization of
// batcheq_test.go. A two-class mixture run on the batched
// BatchedMixture fan-out must be byte-identical to the same mixture
// built from per-flow servers — on the fan-out pipeline through n=32
// per class, on the serial mixture engine only through n=16
// (TestMixtureSerialTieDivergence pins where it stops) — and the
// sharded mixture pipeline must be byte-identical to the serial engine
// on the small populations tested. A third suite checks that
// aggregated-stats mode reports exactly what per-flow receivers
// measure.

// mixClasses is the two-class population the tests run: n "viewers"
// (Lost @ 1.0 Mbps) and n "elephants" (Dark @ 1.5 Mbps) with distinct
// policing, phases and staggers — every per-class knob differs so a
// class-mixup cannot cancel out.
func mixClasses(n int, truncate units.Time) []topology.FlowClass {
	return []topology.FlowClass{
		{Name: "viewers", Enc: video.CachedCBR(video.Lost(), 1.0e6), N: n,
			TokenRate: 1.3e6, Truncate: truncate,
			Stagger: 331 * units.Millisecond},
		{Name: "elephants", Enc: video.CachedCBR(video.Dark(), 1.5e6), N: n,
			TokenRate: 1.95e6, Truncate: truncate,
			Phase: 170 * units.Millisecond, Stagger: 217 * units.Millisecond},
	}
}

// runMixturePoint builds and runs one two-class mixture (n flows per
// class) against a 12 Mbps priority bottleneck — provisioned for
// roughly n=2, so n=4 and n=8 overload it and exercise queue drops.
func runMixturePoint(n int, batch bool, shards int, aggregate bool,
	truncate units.Time, rec *ptrace.Recorder) *topology.MultiFlow {
	m := topology.BuildMultiFlow(topology.MultiFlowConfig{
		Seed: DefaultSeed, Classes: mixClasses(n, truncate),
		Depth: 4500, BottleneckRate: 12e6, Sched: topology.PriorityBottleneck,
		BELoad: 0.15, Batch: batch, Shards: shards, AggregateStats: aggregate,
		Trace: rec,
	})
	m.Run()
	return m
}

// mixEnc maps a global flow index of the test mixture to its class
// encoding (class-major layout: viewers first).
func mixEnc(g, n int) *video.Encoding {
	if g < n {
		return video.CachedCBR(video.Lost(), 1.0e6)
	}
	return video.CachedCBR(video.Dark(), 1.5e6)
}

// diffMixture fails the test wherever two mixture runs differ in any
// downstream-observable way: per-flow delivered counts, per-flow
// policer verdicts, per-flow evaluations, bottleneck totals.
func diffMixture(t *testing.T, labelA, labelB string, a, b *topology.MultiFlow, n int) {
	t.Helper()
	for i := range a.Clients {
		if a.Clients[i].Packets != b.Clients[i].Packets ||
			a.Clients[i].PacketsBytes != b.Clients[i].PacketsBytes {
			t.Errorf("flow %d delivered: %s %d pkts/%d B, %s %d pkts/%d B",
				i, labelA, a.Clients[i].Packets, a.Clients[i].PacketsBytes,
				labelB, b.Clients[i].Packets, b.Clients[i].PacketsBytes)
		}
		enc := mixEnc(i, n)
		ea := Evaluate(a.Clients[i].Trace(), enc, enc)
		eb := Evaluate(b.Clients[i].Trace(), enc, enc)
		if ea != eb {
			t.Errorf("flow %d evaluation diverged:\n%s %+v\n%s %+v", i, labelA, ea, labelB, eb)
		}
	}
	for i := range a.Policers {
		pa, pb := a.Policers[i], b.Policers[i]
		if pa.Passed != pb.Passed || pa.Dropped != pb.Dropped ||
			pa.PassedBytes != pb.PassedBytes || pa.DroppedBytes != pb.DroppedBytes {
			t.Errorf("flow %d policer: %s pass=%d drop=%d (%d/%d B), %s pass=%d drop=%d (%d/%d B)",
				i, labelA, pa.Passed, pa.Dropped, pa.PassedBytes, pa.DroppedBytes,
				labelB, pb.Passed, pb.Dropped, pb.PassedBytes, pb.DroppedBytes)
		}
	}
	if a.Bottleneck.Sent != b.Bottleneck.Sent ||
		a.Bottleneck.SentBytes != b.Bottleneck.SentBytes {
		t.Errorf("bottleneck: %s %d pkts/%d B, %s %d pkts/%d B",
			labelA, a.Bottleneck.Sent, a.Bottleneck.SentBytes,
			labelB, b.Bottleneck.Sent, b.Bottleneck.SentBytes)
	}
}

// TestMixtureBatchedEquivalence pins mixture-batched == unbatched
// byte-identically at two classes × N ∈ {4, 8} flows per class.
func TestMixtureBatchedEquivalence(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 8} {
		n := n
		t.Run(map[int]string{4: "N=4", 8: "N=8"}[n], func(t *testing.T) {
			t.Parallel()
			mu := runMixturePoint(n, false, 0, false, 0, nil)
			mb := runMixturePoint(n, true, 0, false, 0, nil)
			diffMixture(t, "unbatched", "batched", mu, mb, n)
			if mb.Sim.Fired() >= mu.Sim.Fired() {
				t.Errorf("batched mixture fired %d events, unbatched %d — no source-side saving",
					mb.Sim.Fired(), mu.Sim.Fired())
			}
			// Every virtual flow emitted its full class schedule.
			for g, sent := range mb.Mixture.Sent {
				want := len(mb.Mixture.Classes[mb.Mixture.ClassOf(g)].Sched.Entries)
				if sent != want {
					t.Errorf("virtual flow %d emitted %d of %d scheduled packets", g, sent, want)
				}
			}
		})
	}
}

// TestMixtureShardedEquivalence pins sharded mixture == serial mixture
// byte-identically, for both the batched fan-out pipeline and the
// unbatched chain-clone pipeline, at several shard counts, and the
// pipeline against the unbatched build at n=32 per class — a size
// where the serial mixture engine no longer matches either (see
// TestMixtureSerialTieDivergence).
func TestMixtureShardedEquivalence(t *testing.T) {
	t.Parallel()
	const n = 4
	t.Run("pipeline-vs-unbatched", func(t *testing.T) {
		t.Parallel()
		const n = 32
		unbatched := runMixturePoint(n, false, 0, false, 0, nil)
		pipeline := runMixturePoint(n, true, 2, false, 0, nil)
		diffMixture(t, "unbatched", "pipeline", unbatched, pipeline, n)
	})
	t.Run("batched", func(t *testing.T) {
		t.Parallel()
		serial := runMixturePoint(n, true, 0, false, 0, nil)
		for _, shards := range []int{2, 5} {
			sharded := runMixturePoint(n, true, shards, false, 0, nil)
			if sharded.Stats.Shards < 2 {
				t.Fatalf("shards=%d ran with %d shard workers", shards, sharded.Stats.Shards)
			}
			diffMixture(t, "serial", "sharded", serial, sharded, n)
		}
	})
	t.Run("unbatched", func(t *testing.T) {
		t.Parallel()
		serial := runMixturePoint(n, false, 0, false, 0, nil)
		sharded := runMixturePoint(n, false, 3, false, 0, nil)
		if sharded.Stats.Shards < 2 {
			t.Fatalf("unbatched sharded run used %d shard workers", sharded.Stats.Shards)
		}
		diffMixture(t, "serial", "sharded", serial, sharded, n)
	})
}

// TestMixtureSerialTieDivergence pins where the serial mixture engine
// (BatchedMixture.Start, which one-worker mixture runs still use)
// stops matching per-flow servers. At n=16 per class it matches the
// unbatched build exactly. At n=32 a same-instant tie between its one
// re-armed delivery timer and another component's event resolves the
// other way, and the bottleneck totals diverge (168,263 vs 168,096
// packets under the default seed), while the fan-out pipeline still
// matches the unbatched build (TestMixtureShardedEquivalence). The
// fix is to run mixtures on the pipeline at one worker as well, once
// the benchmark's stored fleet-mixture output is re-recorded on it. If
// either side of this pin flips, the boundary has moved and the
// flowbatch package comment needs re-deriving.
func TestMixtureSerialTieDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("unbatched n=32 mixture run is slow; run without -short")
	}
	t.Parallel()
	diffMixture(t, "unbatched", "serial", runMixturePoint(16, false, 0, false, 0, nil),
		runMixturePoint(16, true, 0, false, 0, nil), 16)
	mu, ms := runMixturePoint(32, false, 0, false, 0, nil), runMixturePoint(32, true, 0, false, 0, nil)
	t.Logf("n=32 bottleneck: unbatched %d pkts, serial mixture %d pkts", mu.Bottleneck.Sent, ms.Bottleneck.Sent)
	if mu.Bottleneck.Sent == ms.Bottleneck.Sent &&
		mu.Bottleneck.SentBytes == ms.Bottleneck.SentBytes {
		t.Errorf("n=32 stayed bit-equal (%d pkts/%d B) — the documented serial-mixture tie divergence no longer reproduces; re-derive the boundary",
			mu.Bottleneck.Sent, mu.Bottleneck.SentBytes)
	}
}

// TestMixtureAggregatedMatchesExact checks the aggregated-stats mode
// against per-flow receivers on the identical simulation: per-class
// delivered packet/byte counts must match the sums of the exact
// clients', the streaming delay moments must match the trace-derived
// per-packet delays to floating-point accuracy, and the P² sketch
// quantiles must land within the documented error bound of the exact
// order statistics.
func TestMixtureAggregatedMatchesExact(t *testing.T) {
	t.Parallel()
	const n = 4
	const truncate = 2 * units.Second
	// The exact run records every client delivery (with its one-way
	// delay) into a generously sized recorder; truncated schedules keep
	// the event volume far below capacity.
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 18})
	exact := runMixturePoint(n, true, 0, false, truncate, rec)
	agg := runMixturePoint(n, true, 0, true, truncate, nil)

	if len(agg.Aggregates) != 2 {
		t.Fatalf("aggregated run has %d aggregates, want 2", len(agg.Aggregates))
	}
	// Tracing and receiver choice are both pure observation: the wire
	// side of the two runs must already be identical.
	if exact.Bottleneck.Sent != agg.Bottleneck.Sent {
		t.Fatalf("bottleneck diverged between exact (%d) and aggregated (%d) runs — receiver choice leaked upstream",
			exact.Bottleneck.Sent, agg.Bottleneck.Sent)
	}

	// Counts: per-class aggregate totals == sums over the class's exact
	// per-flow clients.
	for ci := 0; ci < 2; ci++ {
		var pkts, bytes int64
		for g := ci * n; g < (ci+1)*n; g++ {
			pkts += int64(exact.Clients[g].Packets)
			bytes += exact.Clients[g].PacketsBytes
		}
		a := agg.Aggregates[ci]
		if a.Packets != pkts || a.Bytes != bytes {
			t.Errorf("class %d: aggregate %d pkts/%d B, exact clients %d pkts/%d B",
				ci, a.Packets, a.Bytes, pkts, bytes)
		}
		if a.Delay.N() != pkts {
			t.Errorf("class %d: moments saw %d samples, want %d", ci, a.Delay.N(), pkts)
		}
	}

	// Delays: reconstruct the exact per-class delay samples from the
	// exact run's Deliver events.
	delays := [2][]float64{}
	for _, ev := range rec.Events() {
		if ev.Kind != ptrace.Deliver {
			continue
		}
		g := int(ev.Flow - topology.VideoFlow)
		if g < 0 || g >= 2*n {
			continue
		}
		delays[g/n] = append(delays[g/n], ev.Delay.Seconds())
	}
	if rec.Overwritten() > 0 {
		t.Fatalf("recorder overwrote %d events; the exact-delay reconstruction is incomplete", rec.Overwritten())
	}
	for ci := 0; ci < 2; ci++ {
		a := agg.Aggregates[ci]
		ds := delays[ci]
		if int64(len(ds)) != a.Delay.N() {
			t.Fatalf("class %d: trace has %d deliveries, aggregate saw %d", ci, len(ds), a.Delay.N())
		}
		var sum, sumSq, min, max float64
		min, max = math.Inf(1), math.Inf(-1)
		for _, d := range ds {
			sum += d
			sumSq += d * d
			min = math.Min(min, d)
			max = math.Max(max, d)
		}
		mean := sum / float64(len(ds))
		variance := sumSq/float64(len(ds)) - mean*mean
		if rel := math.Abs(a.Delay.Mean()-mean) / mean; rel > 1e-9 {
			t.Errorf("class %d mean: aggregate %v, exact %v (rel err %g)", ci, a.Delay.Mean(), mean, rel)
		}
		if rel := math.Abs(a.Delay.Var()-variance) / variance; rel > 1e-6 {
			t.Errorf("class %d variance: aggregate %v, exact %v (rel err %g)", ci, a.Delay.Var(), variance, rel)
		}
		if a.Delay.Min() != min || a.Delay.Max() != max {
			t.Errorf("class %d extremes: aggregate [%v, %v], exact [%v, %v]",
				ci, a.Delay.Min(), a.Delay.Max(), min, max)
		}
		// Sketch quantiles against exact order statistics, within a
		// tolerance proportional to the sample range (the P² error
		// model; the moments tests pin the same bound on synthetic
		// streams).
		sort.Float64s(ds)
		tol := 0.05 * (max - min)
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.50, a.DelayP50.Value()}, {0.95, a.DelayP95.Value()}, {0.99, a.DelayP99.Value()}} {
			exactQ := ds[int(q.p*float64(len(ds)-1))]
			if math.Abs(q.got-exactQ) > tol {
				t.Errorf("class %d p%02.0f: sketch %v, exact %v (tol %v)", ci, q.p*100, q.got, exactQ, tol)
			}
		}
	}
}

// TestMixtureBucketWidthInvariance pins the per-run calendar-width
// knob as a pure perf knob at the topology level: the same mixture
// run at very different bucket widths produces byte-identical
// results.
func TestMixtureBucketWidthInvariance(t *testing.T) {
	t.Parallel()
	const n = 4
	run := func(width units.Time) *topology.MultiFlow {
		m := topology.BuildMultiFlow(topology.MultiFlowConfig{
			Seed: DefaultSeed, Classes: mixClasses(n, 0),
			Depth: 4500, BottleneckRate: 12e6, Sched: topology.PriorityBottleneck,
			BELoad: 0.15, Batch: true, BucketWidth: width,
		})
		m.Run()
		return m
	}
	ref := run(0) // scenario/simulator default
	for _, width := range []units.Time{10 * units.Microsecond, 4 * units.Millisecond} {
		diffMixture(t, "default-width", width.String(), ref, run(width), n)
	}
}

// TestNFlowFleetRegistered pins the fleet scenario's registration and
// shape: six-figure top end, batched + aggregated, shard-capable,
// scalable.
func TestNFlowFleetRegistered(t *testing.T) {
	s := Lookup("nflow-fleet")
	if s == nil {
		t.Fatal("nflow-fleet not registered")
	}
	spec, ok := s.(FleetSpec)
	if !ok {
		t.Fatalf("nflow-fleet is %T, want FleetSpec", s)
	}
	if max := spec.Ns[len(spec.Ns)-1]; max < 100000 {
		t.Errorf("nflow-fleet tops out at N=%d, want >= 100000", max)
	}
	if len(spec.Classes) < 2 {
		t.Errorf("nflow-fleet has %d classes, want >= 2", len(spec.Classes))
	}
	if !SupportsSharding(s) {
		t.Error("nflow-fleet does not support shards")
	}
	if _, ok := s.(Scalable); !ok {
		t.Error("nflow-fleet is not Scalable")
	}
	// The PR 7 per-N widthFor heuristic is retired: fleet jobs leave
	// the config width zero so the simulator's density-adaptive policy
	// picks the calendar geometry per point (pinned by the QWidth
	// telemetry check in TestFleetEventsPerVFlowFall).
}

// TestFleetEventsPerVFlowFall is the scaling smoke the bench CI job
// runs: on a shrunken fleet grid crossing a proportionally shrunken
// bottleneck's knee, simulator events per virtual flow must fall as N
// grows — the sublinearity the aggregated mixture fan-out exists to
// buy (past the knee, dropped packets cost no dequeue events and the
// bottleneck transmits at most a pipe's worth).
func TestFleetEventsPerVFlowFall(t *testing.T) {
	t.Parallel()
	spec := NFlowFleetSpec()
	spec.Ns = []int{2000, 8000}
	// Knee at ~4000 flows: ~1000 active × ~1.1 Mbps ≈ 1.1 Gbps.
	spec.BottleneckRate = 1.1e9
	fig := RunScenarioOpts(spec, RunOptions{Parallel: 1})
	pts := fig.Series[0].Points
	small, large := pts[0], pts[1]
	if small.VFlows != 2000 || large.VFlows != 8000 {
		t.Fatalf("unexpected vflow counts: %d, %d", small.VFlows, large.VFlows)
	}
	evS := float64(small.Events) / float64(small.VFlows)
	evL := float64(large.Events) / float64(large.VFlows)
	if evL >= evS {
		t.Errorf("events per vflow grew with N: %.1f at N=%d vs %.1f at N=%d",
			evS, small.VFlows, evL, large.VFlows)
	}
	// Past the knee the large point must actually be lossy — otherwise
	// the grid is not crossing the provisioning knee it claims to.
	if large.FrameLoss <= small.FrameLoss || large.FrameLoss <= 0.01 {
		t.Errorf("delivery shortfall did not rise past the knee: %.4f at N=%d vs %.4f at N=%d",
			small.FrameLoss, small.VFlows, large.FrameLoss, large.VFlows)
	}
	// Fleet points run width-adaptive and report queue telemetry: the
	// final width is the policy's converged choice, and the denser
	// point must not have converged wider than the sparser one.
	if small.QWidth <= 0 || large.QWidth <= 0 || small.QRebases == 0 {
		t.Errorf("queue telemetry missing: QWidth %v/%v, QRebases %d",
			small.QWidth, large.QWidth, small.QRebases)
	}
	if large.QWidth > small.QWidth {
		t.Errorf("adaptive width grew with density: %v at N=%d vs %v at N=%d",
			small.QWidth, small.VFlows, large.QWidth, large.VFlows)
	}
}

// TestFleetAdaptiveNoSlowerThanStatic is the CI width-policy smoke at
// full registered scale: the fleet's densest point (N=200k) must run
// no slower under the adaptive calendar than under the pinned static
// default width — with a generous noise margin, since both are single
// wall-clock samples — and must produce identical aggregates, because
// bucket width is a performance knob, never a semantic one. Skipped
// in -short mode (two full N=200k mixture runs).
func TestFleetAdaptiveNoSlowerThanStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full N=200k fleet runs; skipped in -short mode")
	}
	spec := NFlowFleetSpec()
	const n = 200000
	run := func(width units.Time) Point {
		ctx := &Ctx{Pool: packet.NewPool(), BucketWidth: width}
		return evaluateFleet(ctx, topology.MultiFlowConfig{
			Seed: spec.Seed, Classes: spec.classesFor(n),
			Depth:          spec.Depth,
			BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
			BELoad: spec.BELoad, Pool: ctx.Pool,
			Batch: true, AggregateStats: true,
		}, "N=200000", "N200000")
	}
	static := run(sim.DefaultBucketWidth)
	adaptive := run(0)

	// Same simulation, different geometry: every semantic output must
	// match exactly.
	if adaptive.Events != static.Events || adaptive.VFlows != static.VFlows ||
		adaptive.FrameLoss != static.FrameLoss || adaptive.PacketLoss != static.PacketLoss {
		t.Errorf("adaptive vs static results diverged:\nadaptive %+v\nstatic   %+v",
			adaptive, static)
	}
	if len(adaptive.Classes) != len(static.Classes) {
		t.Fatalf("class counts diverged: %d vs %d", len(adaptive.Classes), len(static.Classes))
	}
	for i := range static.Classes {
		if adaptive.Classes[i] != static.Classes[i] {
			t.Errorf("class %d diverged:\nadaptive %+v\nstatic   %+v",
				i, adaptive.Classes[i], static.Classes[i])
		}
	}
	// The dense point must have converged below the static default —
	// that is the whole premise of retiring the widthFor heuristic.
	if adaptive.QWidth >= sim.DefaultBucketWidth {
		t.Errorf("adaptive width did not narrow on the dense point: %v", adaptive.QWidth)
	}
	if adaptive.RunMS > static.RunMS*1.15 {
		t.Errorf("adaptive slower than static default: %.1f ms vs %.1f ms",
			adaptive.RunMS, static.RunMS)
	}
}
