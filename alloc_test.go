package repro_test

// Allocation budget for the per-packet hot path: once the event pool,
// the FIFO rings and the pre-bound link Timers are warm, pushing a
// packet through enqueue → serialization → propagation → delivery
// must not allocate at all. This is the short-mode guard behind
// BenchmarkLinkHotPath's 0 allocs/op.

import (
	"testing"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// TestLinkHotPathAllocationBudget pins the tracing-disabled contract:
// with every Tap nil (the default), the link+queue hot path allocates
// nothing — the per-event cost of the disabled tracing subsystem is a
// pointer comparison, not an allocation.
func TestLinkHotPathAllocationBudget(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	l := link.New(s, 100*units.Mbps, units.Millisecond, queue.NewEFPriority(0, 0), &sink)
	var p packet.Packet
	p.Size = 1500
	p.DSCP = packet.EF
	// Warm the pools: event free list, calendar buckets, FIFO ring,
	// in-flight ring.
	for i := 0; i < 200; i++ {
		l.Handle(&p)
		s.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		l.Handle(&p)
		s.Run() // drains the tx-done and delivery events
	})
	if allocs != 0 {
		t.Errorf("link+queue hot path allocates %.2f/op, want 0", allocs)
	}
}

// TestLinkHotPathTracedAllocationBudget pins the tracing-enabled
// budget: with a ring Recorder attached the same path must stay at
// ≤ 1 amortized allocation per simulator event — and in fact stays at
// 0, because Emit writes into storage preallocated at construction.
func TestLinkHotPathTracedAllocationBudget(t *testing.T) {
	s := sim.New(1)
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 4096})
	rec.SetClock(s)
	var sink packet.Sink
	l := link.New(s, 100*units.Mbps, units.Millisecond, queue.NewEFPriority(0, 0), &sink)
	l.Tap, l.Hop = rec, rec.Hop("link")
	var p packet.Packet
	p.Size = 1500
	p.DSCP = packet.EF
	for i := 0; i < 200; i++ {
		l.Handle(&p)
		s.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		l.Handle(&p)
		s.Run() // two simulator events plus three trace emissions
	})
	if allocs > 1 {
		t.Errorf("traced link+queue hot path allocates %.2f/op, want <= 1 amortized (expect 0)", allocs)
	}
	if rec.Seen() == 0 {
		t.Fatal("recorder saw nothing — tap not wired")
	}
}

// batchedFixture builds a warmed-up serial BatchedMixture fan-out —
// one class of four virtual flows on a dense synthetic schedule,
// folded access chain, terminal pooled sink — ready for allocation
// measurement. The folded
// jitter is zero so the steady state is exactly periodic: like the
// CBR fixture below, an AllocsPerRun=0 pin needs a deterministic
// occupancy envelope (random jitter makes calendar-bucket and
// event-pool capacities chase occasional new maxima — a simulator
// growth trickle, not a per-packet source cost; the jittered path's
// behaviour is pinned byte-identical by the experiment package's
// differential harness instead).
func batchedFixture(tap *ptrace.Recorder) (*sim.Simulator, *flowbatch.BatchedMixture) {
	s := sim.New(1)
	pool := packet.NewPool()
	sched := &flowbatch.Schedule{}
	for i := 0; i < 12000; i++ {
		sched.Entries = append(sched.Entries, flowbatch.Entry{
			At: units.Time(i) * 500 * units.Microsecond, Size: 1200,
			FrameSeq: int32(i / 4), FragIndex: int32(i % 4), FragCount: 4,
		})
	}
	sink := packet.Sink{Pool: pool}
	src := &flowbatch.BatchedMixture{
		Sim: s, BaseFlow: 10, Next: []packet.Handler{&sink}, Pool: pool,
		Classes: []flowbatch.MixtureClass{{Sched: sched, N: 4, Offset: 7 * units.Millisecond,
			Chain: flowbatch.ChainSpec{AccessRate: 100 * units.Mbps,
				AccessDelay: 500 * units.Microsecond}}},
	}
	if tap != nil {
		tap.SetClock(s)
		src.Tap, src.Hop = tap, tap.Hop("vflows")
	}
	src.Start()
	s.RunUntil(200 * units.Millisecond) // warm pools, wheels and rings
	return s, src
}

// TestBatchedSourceAllocationBudget pins the batched fan-out's hot
// path at zero allocations: once the drawn-ahead rings, the merge
// wheels, the event pool and the packet arena are warm, emitting N
// virtual flows' packets through the folded chain allocates nothing.
func TestBatchedSourceAllocationBudget(t *testing.T) {
	s, src := batchedFixture(nil)
	var at units.Time = 200 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("batched emission hot path allocates %.2f/op, want 0", allocs)
	}
	if src.TotalSent() == 0 {
		t.Fatal("fixture emitted nothing — budget measured an idle simulator")
	}
}

// TestBatchedSourceTracedAllocationBudget pins the same path with a
// ring Recorder attached: Emit writes into preallocated storage, so
// the traced budget is still zero.
func TestBatchedSourceTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	s, src := batchedFixture(rec)
	var at units.Time = 200 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("traced batched emission hot path allocates %.2f/op, want 0", allocs)
	}
	if src.TotalSent() == 0 || rec.Seen() == 0 {
		t.Fatal("fixture emitted nothing or tap not wired")
	}
}

// shardPipeline drives the three-stage sharded pipeline of
// internal/flowbatch synchronously — shard arrival walks, jitter
// sequencing, border replay — one lookahead window per step. The
// goroutine pipelining of the real runner is irrelevant to the
// allocation budget (AllocsPerRun is process-global), so the stages
// run inline in the same hand-off order.
type shardPipeline struct {
	border   *sim.Simulator
	src      *flowbatch.BatchedMixture
	sas      []*flowbatch.ShardArrivals
	seq      *flowbatch.JitterSequencer
	chunks   [][]flowbatch.Arrival
	dels     []flowbatch.Delivery
	frontier units.Time
	window   units.Time
}

func (p *shardPipeline) step() {
	p.frontier += p.window
	for i, sa := range p.sas {
		sa.AdvanceTo(p.frontier)
		p.chunks[i] = sa.Out
	}
	p.dels = p.seq.Feed(p.chunks, p.frontier, p.dels[:0])
	for i := range p.dels {
		d := &p.dels[i]
		p.border.RunBefore(d.At)
		p.border.AdvanceTo(d.At)
		p.src.Inject(d.Flow, d.Entry)
	}
	for _, sa := range p.sas {
		sa.Out = sa.Out[:0]
	}
	p.border.RunBefore(p.frontier)
}

// shardedBorderFixture assembles the warmed pipeline: four virtual
// flows dealt round-robin over two shard walkers, the zero-jitter
// degenerate sequencer (periodic steady state — same rationale as
// batchedFixture), and a border link so replay exercises the real
// event path, not just the fan-out.
func shardedBorderFixture(tap *ptrace.Recorder) *shardPipeline {
	s := sim.New(1)
	pool := packet.NewPool()
	sched := &flowbatch.Schedule{}
	for i := 0; i < 12000; i++ {
		sched.Entries = append(sched.Entries, flowbatch.Entry{
			At: units.Time(i) * 500 * units.Microsecond, Size: 1200,
			FrameSeq: int32(i / 4), FragIndex: int32(i % 4), FragCount: 4,
		})
	}
	sink := packet.Sink{Pool: pool}
	l := link.New(s, 100*units.Mbps, 500*units.Microsecond, queue.NewEFPriority(0, 0), &sink)
	l.Pool = pool
	chain := flowbatch.ChainSpec{AccessRate: 100 * units.Mbps,
		AccessDelay: 500 * units.Microsecond}
	const n = 4
	src := &flowbatch.BatchedMixture{
		Sim: s, BaseFlow: 10, Next: []packet.Handler{l}, Pool: pool,
		Classes: []flowbatch.MixtureClass{{Sched: sched, N: n, Offset: 7 * units.Millisecond, Chain: chain}},
	}
	if tap != nil {
		tap.SetClock(s)
		src.Tap, src.Hop = tap, tap.Hop("vflows")
		l.Tap, l.Hop = tap, tap.Hop("border")
	}
	src.InitReplay()
	base := flowbatch.BaseArrivals(sched, chain)
	const shards = 2
	p := &shardPipeline{border: s, src: src, window: 10 * units.Millisecond,
		chunks: make([][]flowbatch.Arrival, shards)}
	for i := 0; i < shards; i++ {
		sa := &flowbatch.ShardArrivals{}
		for f := i; f < n; f += shards {
			sa.Flows = append(sa.Flows, int32(f))
			sa.Start = append(sa.Start, src.StartOf(f))
			sa.Bases = append(sa.Bases, base)
		}
		sa.Init()
		p.sas = append(p.sas, sa)
	}
	p.seq = &flowbatch.JitterSequencer{RNG: s.RNG(), JitterMaxOf: make([]units.Time, n), N: n}
	p.seq.Init()
	for i := 0; i < 20; i++ { // warm buffers, pools, rings
		p.step()
	}
	return p
}

// TestShardBorderMergeAllocationBudget pins the sharded border-merge
// hot path at zero allocations once warm: walking arrivals, merging
// and releasing deliveries, and replaying them through the border
// link must all run on reused buffers, pooled packets and pooled
// events.
func TestShardBorderMergeAllocationBudget(t *testing.T) {
	p := shardedBorderFixture(nil)
	allocs := testing.AllocsPerRun(100, p.step)
	if allocs != 0 {
		t.Errorf("sharded border-merge hot path allocates %.2f/op, want 0", allocs)
	}
	if p.src.TotalSent() == 0 {
		t.Fatal("fixture injected nothing — budget measured an idle pipeline")
	}
}

// TestShardBorderMergeTracedAllocationBudget pins the same path with a
// ring Recorder tapping both the fan-out and the border link: Emit
// writes into preallocated storage, so the traced budget is still
// zero.
func TestShardBorderMergeTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	p := shardedBorderFixture(rec)
	allocs := testing.AllocsPerRun(100, p.step)
	if allocs != 0 {
		t.Errorf("traced sharded border-merge hot path allocates %.2f/op, want 0", allocs)
	}
	if p.src.TotalSent() == 0 || rec.Seen() == 0 {
		t.Fatal("fixture injected nothing or tap not wired")
	}
}

// aggregateFixture warms a class-level Aggregate receiver on a pooled
// delivery stream with varied delays, so the P² sketch markers have
// settled into steady-state interpolation before measurement.
func aggregateFixture(tap *ptrace.Recorder) (*sim.Simulator, *client.Aggregate, func()) {
	s := sim.New(1)
	pool := packet.NewPool()
	agg := client.NewAggregate(s)
	agg.Pool = pool
	if tap != nil {
		tap.SetClock(s)
		agg.Tap, agg.Hop = tap, tap.Hop("class")
	}
	var i units.Time
	deliver := func() {
		for k := 0; k < 8; k++ {
			i++
			p := pool.Get()
			p.Size = 1200
			p.Flow = 42
			// A deterministic sawtooth of one-way delays in [1ms, 9ms):
			// enough spread to keep all three sketches interpolating.
			p.SentAt = s.Now() - units.Millisecond - (i%8)*units.Millisecond
			agg.Handle(p)
		}
	}
	for k := 0; k < 100; k++ {
		deliver()
	}
	return s, agg, deliver
}

// TestAggregateDeliveryAllocationBudget pins the aggregated-stats
// delivery path at zero allocations once warm: counting, the Welford
// moments, and the three P² quantile sketches all run on fixed-size
// state, and the packet returns to its pool.
func TestAggregateDeliveryAllocationBudget(t *testing.T) {
	_, agg, deliver := aggregateFixture(nil)
	allocs := testing.AllocsPerRun(500, deliver)
	if allocs != 0 {
		t.Errorf("aggregate delivery hot path allocates %.2f/op, want 0", allocs)
	}
	if agg.Packets == 0 || agg.Delay.N() == 0 {
		t.Fatal("fixture delivered nothing — budget measured an idle receiver")
	}
}

// TestAggregateDeliveryTracedAllocationBudget pins the same path with
// a ring Recorder attached: the per-delivery Deliver event goes into
// preallocated storage, so the traced budget is still zero.
func TestAggregateDeliveryTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	_, agg, deliver := aggregateFixture(rec)
	allocs := testing.AllocsPerRun(500, deliver)
	if allocs != 0 {
		t.Errorf("traced aggregate delivery hot path allocates %.2f/op, want 0", allocs)
	}
	if agg.Packets == 0 || rec.Seen() == 0 {
		t.Fatal("fixture delivered nothing or tap not wired")
	}
}

// steadyTick is a self-rescheduling timer with a fixed period: the
// simplest workload whose firing spacing the adaptive calendar policy
// can observe and converge on.
type steadyTick struct {
	s   *sim.Simulator
	gap units.Time
	n   int
}

func (a *steadyTick) Fire(now units.Time) {
	a.n++
	a.s.AfterTimer(a.gap, a)
}

// TestAdaptiveWidthAllocationBudget pins the density-tracking path at
// zero allocations warm: the streaming statistics the adaptive policy
// reads (scheduled count, spacing EWMA, per-rebase firing totals) are
// plain counters, and once the width has converged on the observed
// spacing — which the warm-up guarantees, firing ~20k events at a
// fixed 20 µs period across several window rebases — steady-state
// running neither allocates nor moves the width again.
func TestAdaptiveWidthAllocationBudget(t *testing.T) {
	s := sim.New(1)
	tick := &steadyTick{s: s, gap: 20 * units.Microsecond}
	s.AfterTimer(0, tick)
	s.RunUntil(400 * units.Millisecond) // several rebases: width converges
	qs := s.QueueStats()
	if !qs.Adaptive {
		t.Fatal("sim.New did not produce an adaptive queue")
	}
	if qs.WidthMoves == 0 || qs.Width >= sim.DefaultBucketWidth {
		t.Fatalf("width did not converge below the default during warm-up: %+v", qs)
	}
	var at units.Time = 400 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("adaptive density-tracking path allocates %.2f/op, want 0", allocs)
	}
	after := s.QueueStats()
	if after.WidthMoves != qs.WidthMoves {
		t.Errorf("width moved during steady state: %d -> %d moves (width %v -> %v)",
			qs.WidthMoves, after.WidthMoves, qs.Width, after.Width)
	}
	if after.Rebases == qs.Rebases {
		t.Error("no rebase inside the measured window — budget did not cover migration")
	}
}

// TestPooledSourceAllocationBudget pins the same property for a
// steady-state traffic source feeding a link from a packet pool: the
// whole emit → enqueue → transmit → sink-release cycle reuses pooled
// packets and events.
func TestPooledSourceAllocationBudget(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	sink := packet.Sink{Pool: pool}
	l := link.New(s, 100*units.Mbps, 0, queue.NewEFPriority(0, 0), &sink)
	l.Pool = pool
	src := &traffic.CBR{Sim: s, Rate: 10 * units.Mbps, Size: 1500, Next: l, Pool: pool}
	src.Start()
	s.RunUntil(100 * units.Millisecond) // warm
	var at units.Time = 100 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("pooled CBR→link cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestServerFrameAllocationBudget pins the streaming servers' frame
// path at zero allocations warm: the frame clock re-arms one Timer per
// frame and the shared fragment sender queues pooled packets on a ring
// behind one pre-bound Timer, so a frame interval of pooled WMTUDP,
// Burst or Adaptive streaming — frame event, packetization, one send
// event per fragment, sink release — allocates nothing.
func TestServerFrameAllocationBudget(t *testing.T) {
	clip := video.Lost()
	cbr := video.EncodeCBR(clip, 1.0e6)
	vbr := video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps)
	cases := []struct {
		name  string
		start func(s *sim.Simulator, next packet.Handler, pool *packet.Pool) *int
	}{
		{"WMTUDP", func(s *sim.Simulator, next packet.Handler, pool *packet.Pool) *int {
			srv := &server.WMTUDP{Sim: s, Enc: vbr, Flow: 1, Next: next, Pool: pool}
			srv.Start()
			return &srv.Sent
		}},
		{"Burst", func(s *sim.Simulator, next packet.Handler, pool *packet.Pool) *int {
			srv := &server.Burst{Sim: s, Enc: cbr, Flow: 1, Next: next, Pool: pool}
			srv.Start()
			return &srv.Sent
		}},
		{"Adaptive", func(s *sim.Simulator, next packet.Handler, pool *packet.Pool) *int {
			srv := &server.Adaptive{Sim: s, Encs: []*video.Encoding{cbr}, Flow: 1, Next: next, Pool: pool}
			srv.Start()
			return &srv.Sent
		}},
	}
	interval := video.FrameInterval()
	for _, c := range cases {
		s := sim.New(1)
		pool := packet.NewPool()
		sent := c.start(s, &packet.Sink{Pool: pool}, pool)
		at := 300 * interval
		s.RunUntil(at) // warm the event pool, calendar, ring and arena
		before := *sent
		allocs := testing.AllocsPerRun(200, func() {
			at += interval
			s.RunUntil(at)
		})
		if allocs != 0 {
			t.Errorf("%s: one frame interval allocates %.2f/op, want 0", c.name, allocs)
		}
		if *sent == before {
			t.Errorf("%s: sent nothing — budget measured an idle simulator", c.name)
		}
	}
}
