package topology

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
)

// BottleneckSched selects the scheduling discipline of the shared
// bottleneck in the multi-flow topology.
type BottleneckSched int

// Bottleneck scheduler kinds.
const (
	// PriorityBottleneck serves EF strictly first (the paper's core
	// configuration).
	PriorityBottleneck BottleneckSched = iota
	// DRRBottleneck shares the port by deficit round robin across
	// EF / AF / best-effort classes (quanta 4500/3000/1500).
	DRRBottleneck
	// WFQBottleneck shares the port by weighted fair queueing across
	// EF / AF / best-effort classes (weights 3/2/1).
	WFQBottleneck
)

// String names the scheduler kind.
func (k BottleneckSched) String() string {
	switch k {
	case PriorityBottleneck:
		return "priority"
	case DRRBottleneck:
		return "drr"
	case WFQBottleneck:
		return "wfq"
	default:
		return fmt.Sprintf("BottleneckSched(%d)", int(k))
	}
}

// BottleneckSchedulers lists the kinds the scheduler-comparison
// scenario sweeps.
func BottleneckSchedulers() []BottleneckSched {
	return []BottleneckSched{PriorityBottleneck, DRRBottleneck, WFQBottleneck}
}

func (k BottleneckSched) spec(classLimit int) SchedulerSpec {
	afMatch := queue.MatchDSCP(packet.AF11, packet.AF12, packet.AF13)
	switch k {
	case DRRBottleneck:
		return DRRSched(
			queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Quantum: 4500, Limit: classLimit},
			queue.ClassSpec{Name: "af", Match: afMatch, Quantum: 3000, Limit: classLimit},
			queue.ClassSpec{Name: "be", Quantum: 1500, Limit: classLimit},
		)
	case WFQBottleneck:
		return WFQSched(
			queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Weight: 3, Limit: classLimit},
			queue.ClassSpec{Name: "af", Match: afMatch, Weight: 2, Limit: classLimit},
			queue.ClassSpec{Name: "be", Weight: 1, Limit: classLimit},
		)
	default:
		return EFPriority(classLimit, classLimit)
	}
}

// MultiFlowConfig parameterizes the N-flow scaling topology: N
// identical video streams, each edge-policed into EF, competing with
// AF-marked and best-effort aggregates for one DiffServ bottleneck.
// This is the first topology beyond the paper's single-flow figures —
// built entirely on the declarative Builder.
type MultiFlowConfig struct {
	Seed uint64
	Enc  *video.Encoding // shared by every flow (use the cached encodings)
	N    int             // video flow count; default 2
	Pool *packet.Pool    // packet arena; nil builds a fresh one
	// Trace, when set, records packet-level events from every element
	// (and every per-flow client) into the bounded recorder.
	Trace *ptrace.Recorder

	TokenRate units.BitRate  // per-flow APS profile; default 1.3×enc nominal is the caller's business
	Depth     units.ByteSize // per-flow burst size; default 4500

	BottleneckRate units.BitRate   // default 10 Mbps
	Sched          BottleneckSched // bottleneck discipline; default strict priority

	AFLoad float64 // AF-marked competing load fraction of the bottleneck; default 0
	BELoad float64 // best-effort load fraction; default 0.15

	// Stagger offsets each flow's start so GoP structures do not
	// align; default 331 ms per flow (coprime-ish with the frame
	// interval).
	Stagger units.Time

	// Batch replaces the N server.Paced instances and their per-flow
	// access-link + jitter chains with one flowbatch.BatchedPaced that
	// fans a shared cached emission schedule out as N phase-offset
	// virtual flows. Policers, the bottleneck, the demux and the
	// per-flow clients are declared identically, so a batched build is
	// byte-identical to an unbatched one (the experiment package's
	// differential harness pins this) while paying the source-side
	// cost once instead of N times.
	Batch bool

	// Shards > 1 executes the run on the intra-run sharded pipeline
	// (see shard.go): the per-flow source chains advance on
	// shard-private simulators under conservative lookahead windows
	// and the border replays their emissions in exact serial order, so
	// a sharded run is bit-identical to a serial one at any shard
	// count (the shardeq harness pins this). <= 1 runs serially.
	Shards int

	// Classes, when non-empty, replaces the homogeneous N-flow
	// population with a mixture of equivalence classes (see mixture.go):
	// each class fans its own cached emission schedule out as its own
	// phase-offset virtual-flow set, interleaved in exact global
	// (time, flow) order. N and Enc are ignored; flow ids are assigned
	// class-major starting at VideoFlow.
	Classes []FlowClass

	// AggregateStats replaces the O(N) per-flow receivers with one
	// client.Aggregate per class: streaming moments and P² delay
	// sketches instead of frame traces, so receive-side memory and
	// assembly are O(classes). Only valid with Classes. Frame-level
	// evaluation (VQM, decode dependencies) is unavailable in this
	// mode; delivery is measured at packet granularity.
	AggregateStats bool

	// BucketWidth overrides the simulator's calendar-queue bucket
	// width (0 keeps sim.DefaultBucketWidth). A pure performance knob:
	// event order — and therefore every figure — is identical at any
	// width. Dense six-figure-flow schedules want narrower buckets
	// (see BenchmarkCalendarBucketWidth).
	BucketWidth units.Time
}

func (c MultiFlowConfig) withDefaults() MultiFlowConfig {
	if c.N == 0 {
		c.N = 2
	}
	if c.Depth == 0 {
		c.Depth = 4500
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 10 * units.Mbps
	}
	if c.BELoad == 0 {
		c.BELoad = 0.15
	}
	if c.Stagger == 0 {
		c.Stagger = 331 * units.Millisecond
	}
	return c
}

// MultiFlow is a built N-flow experiment. Exactly one of Servers
// (unbatched: one paced server per flow), Batched (one fan-out source
// covering every flow) or Mixture (a K-class fan-out, see mixture.go)
// is populated.
type MultiFlow struct {
	Sim        *sim.Simulator
	Net        *Network
	Servers    []*server.Paced
	Batched    *flowbatch.BatchedPaced
	Mixture    *flowbatch.BatchedMixture
	Clients    []*client.UDP
	Policers   []*tokenbucket.Policer
	Bottleneck *link.Link

	// Aggregates holds one class-level delivery accumulator per mixture
	// class when the config asked for AggregateStats (Clients is empty
	// then); ClassNames labels them.
	Aggregates []*client.Aggregate
	ClassNames []string

	// Stats describes the sharded pipeline after Run when Shards > 1
	// (Stats.Shards is 1 after a serial run).
	Stats ShardStats

	enc     *video.Encoding
	n       int
	stagger units.Time
	shards  int
	trace   *ptrace.Recorder

	// Mixture-run state: per-flow class/start/encoding layout (set by
	// the mixture build; nil on homogeneous builds) and the precomputed
	// run horizon (0 means derive the homogeneous one from enc).
	classOf []int32
	starts  []units.Time
	encOf   []*video.Encoding
	horizon units.Time
}

// flowID maps flow index to the packet flow id (flow 0 keeps the
// single-flow experiments' VideoFlow id).
func flowID(i int) packet.FlowID { return VideoFlow + packet.FlowID(i) }

// BuildMultiFlow declares the N-flow graph: per flow a paced server →
// campus link → jitter → EF policer → shared bottleneck; the
// bottleneck's scheduler is selectable; a demux router fans flows back
// out to per-flow clients and drops the cross traffic.
func BuildMultiFlow(cfg MultiFlowConfig) *MultiFlow {
	cfg = cfg.withDefaults()
	if len(cfg.Classes) > 0 {
		return buildMixtureMultiFlow(cfg)
	}
	if cfg.AggregateStats {
		panic("topology: AggregateStats requires Classes (aggregation is per equivalence class)")
	}
	b := NewBuilderWidth(cfg.Seed, cfg.BucketWidth)
	b.UsePool(cfg.Pool)
	b.UseTrace(cfg.Trace)
	m := &MultiFlow{Sim: b.Sim(), enc: cfg.Enc, n: cfg.N, stagger: cfg.Stagger,
		shards: cfg.Shards, trace: cfg.Trace}

	// Receive side: one client per flow behind a demux router; cross
	// traffic that crosses the bottleneck is absorbed by the default
	// sink.
	sink := packet.Sink{Pool: b.Pool()}
	b.Handler("sink", &sink)
	b.Router("demux", "sink")
	for i := 0; i < cfg.N; i++ {
		cl := client.NewUDP(b.Sim(), cfg.Enc.Clip.FrameCount())
		cl.Pool = b.Pool()
		cl.Tolerance = client.SliceTolerance
		m.Clients = append(m.Clients, cl)
		name := fmt.Sprintf("client%d", i)
		if cfg.Trace != nil {
			cl.Tap, cl.Hop = cfg.Trace, cfg.Trace.Hop(name)
		}
		b.Handler(name, cl)
		b.Rule("demux", name, node.FlowMatch(flowID(i)), name)
	}

	b.Link("bottleneck", LinkSpec{
		Rate: cfg.BottleneckRate, Delay: 5 * units.Millisecond,
		Sched: cfg.Sched.spec(400), To: "demux",
	})

	// Send side: per-flow edge policers, and — unbatched — one
	// dedicated access-link + jitter chain per flow. A batched build
	// declares only the policers; the chain is folded (exactly) into
	// the fan-out source below.
	for i := 0; i < cfg.N; i++ {
		pol := fmt.Sprintf("policer%d", i)
		b.Policer(pol, cfg.TokenRate, cfg.Depth, packet.EF, "bottleneck")
		if cfg.Batch {
			continue
		}
		jit := fmt.Sprintf("jit%d", i)
		hub := fmt.Sprintf("hub%d", i)
		b.Jitter(jit, accessJitterMax, pol)
		b.Link(hub, LinkSpec{Rate: accessRate, Delay: accessDelay,
			Sched: PlainFIFO(0), To: jit})
	}

	// Competing aggregates at the bottleneck.
	if cfg.AFLoad > 0 {
		b.Source("af-cross", SourceSpec{
			Kind: PoissonSource, Rate: units.BitRate(cfg.AFLoad * float64(cfg.BottleneckRate)),
			Size: units.EthernetMTU, Flow: 900, DSCP: packet.AF12, To: "bottleneck",
		})
	}
	if cfg.BELoad > 0 {
		b.Source("be-cross", SourceSpec{
			Kind: PoissonSource, Rate: units.BitRate(cfg.BELoad * float64(cfg.BottleneckRate)),
			Size: units.EthernetMTU, Flow: 901, DSCP: packet.BestEffort, To: "bottleneck",
		})
	}

	net := b.MustBuild()
	m.Net = net
	m.Bottleneck = net.Link("bottleneck")
	for i := 0; i < cfg.N; i++ {
		m.Policers = append(m.Policers, net.Policer(fmt.Sprintf("policer%d", i)))
		if cfg.Batch {
			continue
		}
		m.Servers = append(m.Servers, &server.Paced{
			Sim: m.Sim, Enc: cfg.Enc, Flow: flowID(i),
			Next: net.Handler(fmt.Sprintf("hub%d", i)),
			Pool: net.Pool,
		})
	}
	if cfg.Batch {
		nexts := make([]packet.Handler, cfg.N)
		for i := range nexts {
			nexts[i] = net.Handler(fmt.Sprintf("policer%d", i))
		}
		m.Batched = &flowbatch.BatchedPaced{
			Sim: m.Sim, Sched: flowbatch.CachedPacedSchedule(cfg.Enc),
			N: cfg.N, BaseFlow: VideoFlow, Offset: cfg.Stagger,
			Chain: flowbatch.ChainSpec{
				AccessRate: accessRate, AccessDelay: accessDelay,
				JitterMax: accessJitterMax,
			},
			Next: nexts, Pool: net.Pool,
		}
		if cfg.Trace != nil {
			m.Batched.Tap, m.Batched.Hop = cfg.Trace, cfg.Trace.Hop("vflows")
		}
	}
	return m
}

// Per-flow access chain parameters, shared by the unbatched element
// declarations and the batched fold so the two builds stay
// byte-identical.
const (
	accessRate      = 100 * units.Mbps
	accessDelay     = 500 * units.Microsecond
	accessJitterMax = 3 * units.Millisecond
)

// Run starts every flow (staggered) and executes the simulation to
// completion — serially, or on the sharded pipeline when the config
// asked for Shards > 1.
func (m *MultiFlow) Run() {
	horizon := m.horizon
	if horizon == 0 {
		horizon = units.FromSeconds(m.enc.Clip.DurationSeconds()+30) +
			units.Time(int64(m.n))*m.stagger
	}
	switch {
	case m.shards > 1 && m.Mixture != nil:
		m.Stats = m.runShardedMixture(m.shards, horizon)
	case m.shards > 1 && m.Batched != nil:
		m.Stats = m.runShardedBatched(m.shards, horizon)
	case m.shards > 1:
		m.Stats = m.runShardedUnbatched(m.shards, horizon)
	default:
		if m.Batched != nil {
			m.Batched.Start()
		}
		if m.Mixture != nil {
			m.Mixture.Start()
		}
		for i, srv := range m.Servers {
			srv := srv
			at := units.Time(int64(i)) * m.stagger
			if m.starts != nil {
				at = m.starts[i]
			}
			m.Sim.AtTimer(at, sim.TimerFunc(func(units.Time) { srv.Start() }))
		}
		m.Sim.SetHorizon(horizon)
		m.Sim.Run()
		m.Stats = ShardStats{Shards: 1}
	}
	for _, cl := range m.Clients {
		cl.Finish()
	}
}

// runShardedUnbatched clones each flow's server + access link onto
// shard simulators and replays their emissions into the border-side
// jitter elements (the first root-RNG consumers, which must stay
// serial) in exact merged order.
func (m *MultiFlow) runShardedUnbatched(shards int, horizon units.Time) ShardStats {
	chains := make([]sourceChain, m.n)
	for i := 0; i < m.n; i++ {
		enc, startAt := m.enc, units.Time(int64(i))*m.stagger
		if m.encOf != nil {
			enc = m.encOf[i]
		}
		if m.starts != nil {
			startAt = m.starts[i]
		}
		chains[i] = sourceChain{
			enc: enc, flow: flowID(i),
			startAt: startAt,
			rate:    accessRate, delay: accessDelay, sched: PlainFIFO(0),
			name: fmt.Sprintf("hub%d", i),
			next: m.Net.Handler(fmt.Sprintf("jit%d", i)),
		}
	}
	st, results := runShardedChains(m.Sim, m.trace, chains, shards, horizon)
	for _, r := range results {
		// Mirror the clones' counters onto the idle border-side elements
		// so post-run introspection matches a serial run.
		copyLinkStats(m.Net.Link(chains[r.chain].name), r.link)
		srv := m.Servers[r.chain]
		srv.Sent, srv.SentBytes = r.server.Sent, r.server.SentBytes
	}
	return st
}

// AggregatePolicerLoss reports packet loss across all per-flow
// policers.
func (m *MultiFlow) AggregatePolicerLoss() float64 {
	var passed, dropped int
	for _, p := range m.Policers {
		passed += p.Passed
		dropped += p.Dropped
	}
	if passed+dropped == 0 {
		return 0
	}
	return float64(dropped) / float64(passed+dropped)
}
