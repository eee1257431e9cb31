// Package repro reproduces "On the Impact of Policing and Rate
// Guarantees in Diff-Serv Networks: A Video Streaming Application
// Perspective" (Ashmawi, Guérin, Wolf, Pinson — SIGCOMM 2001) as a
// deterministic packet-level simulation study in pure Go.
//
// The library lives under internal/: a discrete-event simulator (sim —
// pooled events on a calendar-queue scheduler behind one Timer-based
// scheduling API), the DiffServ data plane
// (packet, tokenbucket, queue, link, node — with strict-priority, DRR,
// WFQ and RED/RIO schedulers behind one per-class-accounted Scheduler
// interface), traffic sources (traffic),
// the video content and encoder models (video), streaming servers
// (server, tcpsim), the instrumented client and renderer-concealment
// pipeline (client, render, trace), the objective quality model (vqm),
// the declarative network-graph builder with the paper testbeds as
// presets (topology) and the measurement harness that regenerates
// every table and figure of the paper (experiment).
//
// Figures are modelled as named scenarios (experiment.Scenario) and
// executed on a deterministic worker pool (runner) that keeps output
// byte-identical at every parallelism level. Beyond the paper's
// figures, the registry carries scaling scenarios (N competing flows,
// bottleneck-scheduler comparison, tandem policed borders, and the
// flow-batched nflow-wide sweep to hundreds of virtual flows) built
// on the topology builder.
//
// Identical paced flows are batched (flowbatch): one representative
// emission schedule per equivalence class — same encoding, rate and
// packet sizing — cached and fanned out as N phase-offset virtual
// flows by one fan-out engine that folds the per-flow access link
// (exact serialization emulation) and campus jitter (root-RNG draws
// in global arrival order) into itself: a replay pipeline that walks
// each class's access chain once, time-shifts it per flow, draws the
// jitter in one sequencer and replays the deliveries on the border
// simulator. A homogeneous batch is a one-class
// flowbatch.BatchedMixture. Virtual flows keep distinct
// flow ids, policers, taps and per-flow statistics, and a batched
// build is byte-identical to N real servers — pinned by the
// differential harness in internal/experiment — while paying the
// source-side cost once; the fold is exact for the multi-flow
// topology and unavailable for random (Poisson/on-off) sources. This
// is what lets the nflow-wide scenario sweep N ∈ {16..512} with
// events per virtual flow falling as N grows.
//
// One big run can additionally be sharded across workers ("dsbench
// -shards K", MultiFlowConfig.Shards / TandemConfig.Shards) with
// byte-identical output; batched runs use the fan-out pipeline at
// every shard count, one worker at -shards 1. Sources partition
// round-robin into K shards
// — batched virtual flows advance as time-shifted replays of one
// shared base arrival sequence (flowbatch.BaseArrivals; the
// access-chain recurrence is shift-invariant), unbatched chains clone
// server+access-link onto shard-private simulators — and advance
// under a conservative lookahead window derived from the minimum
// latency of the access chain feeding the shared border, which is
// sound because the topologies are feed-forward. A central sequencer
// draws the root-RNG jitter stream at exactly the serial positions,
// and the border simulator replays shard emissions in exact global
// (time, flow) order, firing its own events strictly before each
// emission instant, so figures, per-flow statistics, policer
// verdicts and the merged packet trace are bit-equal to the serial
// run at every shard count — pinned by the shardeq differential
// harness in internal/experiment and internal/topology. Unlike flow
// batching, the worker count has no large-N divergence boundary.
//
// Heterogeneous populations batch as mixtures
// (flowbatch.BatchedMixture, MultiFlowConfig.Classes): K equivalence
// classes — each with its own cached schedule, encoding, access
// chain, policing profile, phase and stagger — fan out class-major
// into one interleaved emission stream in exact global (time, flow)
// order (mixeq harness in internal/experiment). At -shards > 1 a
// mixture runs on the fan-out pipeline. At -shards 1 it keeps a serial
// engine (BatchedMixture.Start), because the benchmark's stored
// fleet-mixture output was recorded on it; that engine's one re-armed
// delivery timer can break a same-instant tie with a border event
// differently, and on the mixeq population it stops matching
// per-flow servers at 32 flows per class, where the pipeline still
// matches (TestMixtureSerialTieDivergence). Six-figure fleets pair
// this with aggregated statistics (MultiFlowConfig.AggregateStats):
// one client.Aggregate per class — delivered counts, streaming delay
// moments, fixed-size P² quantile sketches — keeps receive-side
// memory and figure assembly O(classes) instead of O(flows), at the
// price of frame-level semantics. The nflow-fleet scenario sweeps
// such a mixture to N = 200,000 virtual flows across the
// bottleneck's provisioning knee, recording events per virtual flow
// falling and bytes per virtual flow ~flat as N grows
// (BENCH_PR7.json).
//
// The event queue tunes itself: the calendar's bucket width adapts to
// the mean firing spacing the queue serves, re-derived only at window
// rebases (where the lattice is provably empty) with power-of-two
// targets, clamps and two-level hysteresis, so dense fleets converge
// onto narrow buckets and sparse cancel-heavy TCP timer schedules
// onto wide ones with zero effect on firing order — event order, and
// output, stay width-invariant at every geometry, and rebases also
// compact cancel-storm dead weight out of the overflow heap. A
// positive width (sim.NewWithBucketWidth, the topology configs'
// BucketWidth, "dsbench -bucket-width") pins the geometry and
// disables adaptation; per-run telemetry (rebases, final width,
// overflow ratio) rides on experiment.Point into "dsbench -json",
// and BENCH_PR8.json records the bake-off — the adaptive policy
// tracks the best hand-tuned width per workload and retires the
// fleet's per-N width heuristic.
//
// Below the frame layer, the packet tracing subsystem (ptrace) makes
// the datapath observable: every component carries a nil-by-default
// Tap emitting compact value-type events — link enqueue/tx/deliver,
// queue and AQM drops, policer and marker verdicts, shaper releases,
// client deliveries with one-way delay, TCP send/ACK/RTO — into a
// bounded per-run Recorder (ring + head pinning + sampling + kind and
// flow filters). Disabled tracing is a pointer comparison per tap
// point and the hot paths keep their zero-allocation budget; enabled
// tracing writes into preallocated storage. Traces export in two
// sniffed-on-read formats — versioned JSONL and the ~5×-denser
// delta-packed binary v2, whose trailer-placed totals let the
// Recorder spill a complete filtered capture to disk during the run
// ("dsbench -trace DIR -trace-spill"), unbounded by the in-RAM ring
// and atomically published. cmd/dstrace summarizes either format in
// one bounded-memory streaming pass (counts, Welford moments and P²
// sketches per hop and flow, never the event slice): per-hop drop and
// residence-delay breakdown, policer verdict timelines, per-flow
// latency percentiles, frame-loss attribution by joining against the
// client's frame trace, and behavioral regression diffing ("dstrace
// -compare a.ptrace b.ptrace"), which joins two runs' digests into a
// per-hop/per-flow delta table and exits non-zero on a threshold
// breach — a CI gate for drift the figure goldens summarize away.
//
// Scenarios are also data: internal/scenfile compiles versioned JSON
// scenario files into the same experiment.Scenario registry the Go
// presets live in ("dsbench -scenario-file FILE"). Preset shapes
// (multiflow, fleet, tandem) mirror the sweep specs field for field —
// checked-in files re-expressing nflow and tandem are pinned
// byte-identical to their Go twins, figures, per-flow stats and
// canonicalized packet traces alike — and the graph shape describes
// arbitrary element topologies compiled straight onto the topology
// builder, so workloads like the dumbbell (two edge bottlenecks, a
// shared core, cross-directional EF video) exist only as config
// files. Validation rejects malformed files up front with errors that
// name the offending field, and declared capabilities gate -shards /
// -bucket-width. Config-file-only workloads are pinned by digest
// goldens: "dsbench -trace-digest" writes a behavioral summary
// (.digest) beside each sealed trace and "dstrace -compare-golden
// GOLDEN.digest RUN.ptrace" gates a run against the stored baseline.
//
// The per-packet hot paths are allocation-free: packet.Handler.Handle
// takes ownership of its packet ("forward it, hold it, or terminate
// it and release it to the packet.Pool"), every terminal path
// releases, and each runner worker owns a persistent pool arena so
// arenas never cross goroutines. See the packet and sim package
// comments for the two contracts (packet ownership; Timer scheduling
// and generation-checked event Handles).
//
// Entry points: cmd/dsbench regenerates all artifacts, cmd/dsstream
// runs one experiment, cmd/vqmtool scores stored frame traces,
// cmd/dstrace analyzes packet traces, and examples/ holds runnable
// walkthroughs. bench_test.go in this directory carries one benchmark
// per paper artifact.
//
// See README.md for the repository layout, the scenario registry, and
// the verification commands.
package repro
