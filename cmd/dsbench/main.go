// Command dsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsbench -list
//	dsbench -run all
//	dsbench -run fig7,fig15,table2
//	dsbench -scenario fig9            # one registered scenario
//	dsbench -parallel 8               # worker-pool size (0 = all cores)
//	dsbench -shards 4                 # intra-run sharding per simulation
//	dsbench -scale 4                  # thin token sweeps for a quick pass
//	dsbench -json BENCH.json          # machine-readable scenario results
//	dsbench -scenario tandem -trace traces/   # dump per-point packet traces
//	dsbench -scenario-file dumbbell.scenario.json   # compile + run a config-file scenario
//
// With -trace DIR every scenario point writes a bounded packet-level
// trace (<scenario>-<point>.ptrace) that cmd/dstrace summarizes.
// Tracing is pure observation: figure output is byte-identical with
// and without it. -trace-cap/-trace-head/-trace-sample bound each
// capture; -trace-verdicts restricts it to conditioner verdicts,
// drops and deliveries so the bound covers the whole run.
// -trace-format picks the on-disk encoding (jsonl, the default, or
// the ~5× denser binary v2); -trace-spill streams the complete
// filtered capture to disk during the run, unbounded by -trace-cap
// (always binary v2 — sampling still applies, so -trace-sample
// bounds the file size). -trace-digest additionally writes a
// <point>.digest behavioral summary beside each sealed trace, the
// currency of the `dstrace -compare-golden` gate. Trace files are
// written atomically (temp file + rename), so an interrupted run
// never leaves a torn .ptrace.
//
// Figure scenarios come from the experiment scenario registry and are
// executed on the deterministic runner pool: -parallel changes only
// wall-clock time, never a byte of output. -scenario-file compiles a
// JSON scenario file (internal/scenfile) into the same registry and
// runs it under the identical contract — -shards and -bucket-width
// are honored when the file's declared capabilities allow them and
// rejected up front otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/experiment"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/scenfile"
	"repro/internal/units"
	"repro/internal/video"
)

type artifact struct {
	name string
	desc string
	run  func(scale int) string
}

// plotMode is set by the -plot flag: render figures as ASCII charts
// in addition to the numeric tables.
var plotMode bool

// parallelism is set by the -parallel flag; 0 means GOMAXPROCS.
var parallelism int

// shardCount is set by the -shards flag; > 1 runs each scenario
// point's simulation on the intra-run sharded pipeline. Output is
// byte-identical at any value (the shardeq harness pins this), except
// that a class mixture at 1 runs the serial mixture engine, which can
// break a same-instant tie differently (see internal/flowbatch); the
// knob trades cores-per-point against points-in-flight. Scenarios
// whose jobs do not dispatch to a sharded pipeline are rejected up
// front rather than silently ignoring the flag.
var shardCount int

// bucketWidth is set by the -bucket-width flag; nonzero pins every
// simulation's calendar-queue bucket width, disabling the simulator's
// density-adaptive policy (zero, the default, leaves it adaptive). A
// pure perf knob: event order — and therefore every byte of output —
// is width-invariant. Artifacts that cannot honor the pin reject it
// up front (see rejectWidthBlind).
var bucketWidth units.Time

// jsonPath is set by the -json flag; scenario artifacts then record
// machine-readable results (points, wall time, parallelism) that main
// writes out at exit, so BENCH_*.json perf trajectories can accumulate
// across runs.
var jsonPath string

// jsonRecords collects one record per scenario artifact that ran.
var jsonRecords []scenarioRecord

// traceDir and traceCfg are set by the -trace* flags; when traceDir is
// non-empty every scenario artifact dumps per-point packet traces.
// traceFormat picks the encoding ("jsonl" or "v2"), traceSpill
// streams complete captures during the run (implies v2), and
// traceDigest writes a behavioral .digest beside each sealed trace.
var (
	traceDir    string
	traceCfg    ptrace.Config
	traceFormat string
	traceSpill  bool
	traceDigest bool
)

type jsonPoint struct {
	TokenRateBps float64 `json:"token_rate_bps"`
	DepthBytes   int64   `json:"depth_bytes"`
	Label        string  `json:"label,omitempty"`
	FrameLoss    float64 `json:"frame_loss"`
	Quality      float64 `json:"quality"`
	PacketLoss   float64 `json:"packet_loss"`
	// Events and VirtualFlows expose the per-point scaling trajectory:
	// for the batched wide sweeps, events per virtual flow falling as N
	// grows is the recorded sublinearity evidence.
	Events       uint64 `json:"events,omitempty"`
	VirtualFlows int    `json:"virtual_flows,omitempty"`
	// Shards and ShardStallRatio describe the intra-run sharded
	// pipeline when -shards ran the point on it: the effective worker
	// count and the fraction of border replay wall-clock spent blocked
	// on shard chunks.
	Shards          int     `json:"shards,omitempty"`
	ShardStallRatio float64 `json:"shard_stall_ratio,omitempty"`
	// PeakHeapBytes is the live heap sampled right after the point's
	// simulation (meaningful at -parallel 1), and BytesPerVFlow divides
	// it by the point's virtual-flow count: the fleet sweeps record it
	// staying ~flat as N grows into six figures.
	PeakHeapBytes uint64  `json:"peak_heap_bytes,omitempty"`
	BytesPerVFlow float64 `json:"bytes_per_vflow,omitempty"`
	// RunMS is the point's own simulation wall-clock (scenarios that
	// sample it; meaningful at -parallel 1) — the fleet sweeps' direct
	// sublinear-wall-clock evidence.
	RunMS float64 `json:"run_ms,omitempty"`
	// Calendar-queue telemetry: window rebases, the final bucket width
	// (the adaptive policy's converged choice, or the -bucket-width
	// pin) and the share of schedules that landed in the overflow heap.
	QueueRebases       uint64  `json:"queue_rebases,omitempty"`
	QueueWidthUS       float64 `json:"queue_width_us,omitempty"`
	QueueOverflowRatio float64 `json:"queue_overflow_ratio,omitempty"`
	// Classes carries the per-equivalence-class aggregated statistics
	// of mixture points (aggregated-stats mode).
	Classes []jsonClass `json:"classes,omitempty"`
}

// jsonClass is one equivalence class's aggregated statistics in a
// mixture point.
type jsonClass struct {
	Name             string  `json:"name"`
	Flows            int     `json:"flows"`
	ScheduledPackets int64   `json:"scheduled_packets"`
	ScheduledBytes   int64   `json:"scheduled_bytes"`
	Packets          int64   `json:"packets"`
	Bytes            int64   `json:"bytes"`
	DelayMeanMs      float64 `json:"delay_mean_ms"`
	DelayStdMs       float64 `json:"delay_std_ms"`
	DelayP50Ms       float64 `json:"delay_p50_ms"`
	DelayP95Ms       float64 `json:"delay_p95_ms"`
	DelayP99Ms       float64 `json:"delay_p99_ms"`
}

type jsonSeries struct {
	Label  string      `json:"label"`
	Points []jsonPoint `json:"points"`
}

type scenarioRecord struct {
	Name     string `json:"name"`
	Title    string `json:"title"`
	Parallel int    `json:"parallel"`
	Scale    int    `json:"scale"`
	// Shards is the requested intra-run shard count (-shards);
	// ShardStallRatio averages the per-point border stall fractions of
	// the points that actually ran sharded.
	Shards          int     `json:"shards,omitempty"`
	ShardStallRatio float64 `json:"shard_stall_ratio,omitempty"`
	WallMS          float64 `json:"wall_ms"`
	// Events is the total simulator events executed across every point
	// of the scenario; EventsPerSec = Events / wall time is the
	// throughput number the perf trajectory tracks, and AllocsPerEvent
	// is the process-wide heap allocations attributed to each event —
	// the pooled hot paths drive it toward zero.
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// VirtualFlows totals the flows simulated across the scenario
	// (each simulation counted once); EventsPerVFlow = Events /
	// VirtualFlows is the per-flow cost the batched sources drive down
	// as aggregates widen.
	VirtualFlows   int          `json:"virtual_flows,omitempty"`
	EventsPerVFlow float64      `json:"events_per_vflow,omitempty"`
	Series         []jsonSeries `json:"series"`
}

func makeRecord(name string, fig *experiment.Figure, wall time.Duration, scale int, allocs uint64) scenarioRecord {
	rec := scenarioRecord{
		Name: name, Title: fig.Title, Parallel: parallelism, Scale: scale,
		Shards: shardCount,
		WallMS: float64(wall.Microseconds()) / 1000,
	}
	var stallSum float64
	var stallN int
	for _, s := range fig.Series {
		js := jsonSeries{Label: s.Label}
		for _, p := range s.Points {
			rec.Events += p.Events
			rec.VirtualFlows += p.VFlows
			if p.Shards > 1 {
				stallSum += p.StallRatio
				stallN++
			}
			jp := jsonPoint{
				TokenRateBps: float64(p.TokenRate), DepthBytes: int64(p.Depth),
				Label: p.Label, FrameLoss: p.FrameLoss, Quality: p.Quality,
				PacketLoss: p.PacketLoss, Events: p.Events, VirtualFlows: p.VFlows,
				Shards: p.Shards, ShardStallRatio: p.StallRatio,
				PeakHeapBytes: p.HeapBytes, RunMS: p.RunMS,
				QueueRebases:       p.QRebases,
				QueueWidthUS:       float64(p.QWidth) / float64(units.Microsecond),
				QueueOverflowRatio: p.QOverflow,
			}
			if p.VFlows > 0 && p.HeapBytes > 0 {
				jp.BytesPerVFlow = float64(p.HeapBytes) / float64(p.VFlows)
			}
			for _, c := range p.Classes {
				jp.Classes = append(jp.Classes, jsonClass{
					Name: c.Name, Flows: c.Flows,
					ScheduledPackets: c.ScheduledPackets, ScheduledBytes: c.ScheduledBytes,
					Packets: c.Packets, Bytes: c.Bytes,
					DelayMeanMs: c.DelayMeanMs, DelayStdMs: c.DelayStdMs,
					DelayP50Ms: c.DelayP50Ms, DelayP95Ms: c.DelayP95Ms,
					DelayP99Ms: c.DelayP99Ms,
				})
			}
			js.Points = append(js.Points, jp)
		}
		rec.Series = append(rec.Series, js)
	}
	if stallN > 0 {
		rec.ShardStallRatio = stallSum / float64(stallN)
	}
	if secs := wall.Seconds(); secs > 0 {
		rec.EventsPerSec = float64(rec.Events) / secs
	}
	if rec.Events > 0 {
		rec.AllocsPerEvent = float64(allocs) / float64(rec.Events)
	}
	if rec.VirtualFlows > 0 {
		rec.EventsPerVFlow = float64(rec.Events) / float64(rec.VirtualFlows)
	}
	return rec
}

// writeJSON dumps the collected records ("-" means stdout).
func writeJSON(path string) error {
	out := struct {
		Parallel  int              `json:"parallel"`
		Scenarios []scenarioRecord `json:"scenarios"`
	}{Parallel: parallelism, Scenarios: jsonRecords}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	// Atomic like every other artifact: a reader polling for the
	// trajectory file never observes a torn JSON document.
	return atomicfile.WriteFile(path, data)
}

func render(f *experiment.Figure) string {
	out := f.Format()
	if plotMode {
		out += "\n" + f.Plot(64, 16, false)
	}
	return out
}

// scenarioArtifact adapts a registered scenario to the artifact table,
// recording a JSON result when -json is set.
func scenarioArtifact(s experiment.Scenario) artifact {
	return artifact{s.Name(), s.Describe(), func(scale int) string {
		sc := s
		if sl, ok := sc.(experiment.Scalable); ok && scale > 1 {
			sc = sl.Scaled(scale)
		}
		var msBefore runtime.MemStats
		if jsonPath != "" {
			runtime.ReadMemStats(&msBefore)
		}
		var tr *experiment.TraceRequest
		if traceDir != "" {
			tr = &experiment.TraceRequest{Dir: traceDir, Config: traceCfg,
				Format: traceFormat, Spill: traceSpill, Digest: traceDigest}
		}
		start := time.Now()
		fig := experiment.RunScenarioOpts(sc, experiment.RunOptions{
			Parallel: parallelism, Trace: tr, Shards: shardCount,
			BucketWidth: bucketWidth,
		})
		wall := time.Since(start)
		if jsonPath != "" {
			var msAfter runtime.MemStats
			runtime.ReadMemStats(&msAfter)
			jsonRecords = append(jsonRecords,
				makeRecord(sc.Name(), fig, wall, scale, msAfter.Mallocs-msBefore.Mallocs))
		}
		out := render(fig)
		if tr != nil {
			out += fmt.Sprintf("\n[%d packet traces written to %s]\n", len(tr.Files()), traceDir)
		}
		return out
	}}
}

func artifacts() []artifact {
	all := []artifact{
		{"table1", "Frame Relay interface configuration", func(int) string {
			var b strings.Builder
			b.WriteString("Table 1 — Frame Relay interface configuration\n")
			fmt.Fprintf(&b, "%-14s %-10s %-10s %-6s %-6s\n", "Interface", "CIR", "Bc", "Be", "Type")
			for _, r := range videoTable1() {
				fmt.Fprintf(&b, "%-14s %-10.0f %-10d %-6d %-6s\n", r.name, r.cir, r.bc, r.be, r.kind)
			}
			return b.String()
		}},
		{"table2", "MPEG encoding properties of Lost and Dark", func(int) string {
			return video.FormatTable2("Lost", video.Table2(video.Lost())) + "\n" +
				video.FormatTable2("Dark", video.Table2(video.Dark()))
		}},
		{"table3", "Windows Media encoded clip properties", func(int) string {
			return video.FormatTable3([]video.WMVRow{
				video.Table3(video.Lost()), video.Table3(video.Dark()),
			})
		}},
		{"table4", "Summary of experimental configurations", func(int) string {
			return experiment.Table4()
		}},
		{"fig6", "Instantaneous transmission rates of the MPEG clips", func(scale int) string {
			every := 31 * scale
			return experiment.Figure6(video.Lost(), every) + "\n" + experiment.Figure6(video.Dark(), every)
		}},
	}
	// Scenarios() is already in natural paper order (fig7 … fig16).
	for _, s := range experiment.Scenarios() {
		all = append(all, scenarioArtifact(s))
	}
	all = append(all,
		artifact{"abl-shape", "Ablation: drop vs shape at the QBone border", func(int) string {
			return experiment.AblationShaperVsDrop(experiment.DefaultSeed).Format()
		}},
		artifact{"abl-hops", "Ablation: EF burst accumulation over hop count", func(int) string {
			return experiment.AblationHopCount(experiment.DefaultSeed)
		}},
		artifact{"abl-jitter", "Ablation: pre-policer jitter vs conformance", func(int) string {
			return experiment.AblationJitter(experiment.DefaultSeed)
		}},
		artifact{"abl-af", "Ablation: Assured Forwarding (srTCM + RIO)", func(int) string {
			return experiment.FormatAF(experiment.AblationAF(experiment.DefaultSeed))
		}},
		artifact{"abl-tcp", "Ablation: local TCP, era stack vs RFC 3042", func(int) string {
			return experiment.AblationLocalTCP(experiment.DefaultSeed)
		}},
		artifact{"ef-service", "EF delay/jitter/loss vs cross load", func(int) string {
			return experiment.EFServiceReport(experiment.DefaultSeed)
		}},
	)
	return all
}

type frRow struct {
	name string
	cir  float64
	bc   int64
	be   int64
	kind string
}

func videoTable1() []frRow {
	var rows []frRow
	for _, c := range link.Table1() {
		rows = append(rows, frRow{c.Name, float64(c.CIR), c.Bc, c.Be, c.Kind})
	}
	return rows
}

// rejectUnshardable exits with a clear error when -shards > 1 was
// combined with scenarios whose jobs would silently ignore it. Only
// the scenarios actually selected for this invocation are checked, so
// e.g. `-run nflow-fleet -shards 4` never trips over fig7.
func rejectUnshardable(names map[string]bool, runAll bool) {
	if shardCount <= 1 {
		return
	}
	var bad []string
	for _, s := range experiment.Scenarios() {
		if (runAll || names[s.Name()]) && !experiment.SupportsSharding(s) {
			bad = append(bad, s.Name())
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr,
			"-shards %d is not supported by: %s (these scenarios run single-simulator jobs; drop -shards or select shard-capable scenarios such as %s)\n",
			shardCount, strings.Join(bad, ", "), strings.Join(shardableNames(), ", "))
		os.Exit(2)
	}
}

// rejectWidthBlind exits with a clear error when -bucket-width was
// combined with artifacts that cannot honor it: everything that is
// not a registered scenario (the static tables, fig6's encoder dump,
// the ablations and the EF service report run fixed internal
// configurations with no width plumbing). Mirrors rejectUnshardable:
// only the artifacts actually selected for this invocation are
// checked, so e.g. `-run nflow-fleet -bucket-width 50us` never trips
// over table1.
func rejectWidthBlind(all []artifact, names map[string]bool, runAll bool) {
	if bucketWidth == 0 {
		return
	}
	if bad := widthBlindSelected(all, names, runAll); len(bad) > 0 {
		fmt.Fprintf(os.Stderr,
			"-bucket-width %v is not honored by: %s (these artifacts run fixed internal configurations; drop -bucket-width or select registered scenarios: %s)\n",
			time.Duration(bucketWidth), strings.Join(bad, ", "), strings.Join(experiment.Names(), ", "))
		os.Exit(2)
	}
}

// widthBlindSelected returns the selected artifact names that would
// silently ignore a -bucket-width pin — everything selected that is
// not a registered scenario.
func widthBlindSelected(all []artifact, names map[string]bool, runAll bool) []string {
	scen := map[string]bool{}
	for _, s := range experiment.Scenarios() {
		scen[s.Name()] = true
	}
	var bad []string
	for _, a := range all {
		if (runAll || names[a.name]) && !scen[a.name] {
			bad = append(bad, a.name)
		}
	}
	return bad
}

// shardableNames lists the registered scenarios whose jobs dispatch to
// the intra-run sharded pipeline.
func shardableNames() []string {
	var out []string
	for _, s := range experiment.Scenarios() {
		if experiment.SupportsSharding(s) {
			out = append(out, s.Name())
		}
	}
	return out
}

// validateScale rejects non-positive -scale values at parse time
// rather than letting a zero or negative thinning factor produce an
// empty sweep deep inside a scenario.
func validateScale(n int) error {
	if n < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", n)
	}
	return nil
}

// validateTraceFlow rejects negative -trace-flow values: 0 means
// "every flow" by documented contract, but a negative id used to
// silently mean the same thing, turning typos like `-trace-flow -1`
// into unfiltered captures.
func validateTraceFlow(n int) error {
	if n < 0 {
		return fmt.Errorf("-trace-flow must be >= 0 (0 = every flow), got %d", n)
	}
	return nil
}

// resolveTraceFormat decides the on-disk trace encoding. Spilled
// traces are always binary v2 (JSONL's header carries the event count
// up front, so it cannot be streamed during a run): when -trace-format
// was left at its default the upgrade is silent and documented, but an
// explicitly requested jsonl combined with -trace-spill is a
// contradiction, rejected rather than silently overridden.
func resolveTraceFormat(format string, explicit, spill bool) (string, error) {
	switch format {
	case "jsonl":
		if spill {
			if explicit {
				return "", fmt.Errorf("-trace-format jsonl cannot be combined with -trace-spill: spilled traces stream binary v2 (drop one of the flags)")
			}
			return "v2", nil
		}
		return "jsonl", nil
	case "v2":
		return "v2", nil
	default:
		return "", fmt.Errorf("-trace-format must be jsonl or v2, got %q", format)
	}
}

func main() {
	list := flag.Bool("list", false, "list available artifacts")
	run := flag.String("run", "all", "comma-separated artifact names, or 'all'")
	scenario := flag.String("scenario", "", "run one registered scenario by name (see -list)")
	scenarioFile := flag.String("scenario-file", "",
		"compile and register a JSON scenario file (see internal/scenfile); runs it unless -run/-scenario selects otherwise")
	parallel := flag.Int("parallel", 0, "simulation worker-pool size (0 = all cores, 1 = serial)")
	shards := flag.Int("shards", 1,
		"intra-run shard count per simulation (output is identical at any value, except class mixtures at 1, which run the serial mixture engine)")
	bucket := flag.Duration("bucket-width", 0,
		"pin the calendar-queue bucket width, e.g. 50us, disabling width adaptation (0 = adaptive; pure perf knob)")
	scale := flag.Int("scale", 1, "token-sweep thinning factor (1 = full resolution)")
	plot := flag.Bool("plot", false, "render figures as ASCII charts too")
	jsonFlag := flag.String("json", "", "write per-scenario results as JSON to this file (\"-\" = stdout)")
	trace := flag.String("trace", "", "write per-point packet traces (.ptrace) into this directory")
	traceCap := flag.Int("trace-cap", 1<<17, "max events retained per trace")
	traceHead := flag.Int("trace-head", 4096, "events pinned from the start of each run")
	traceSample := flag.Int("trace-sample", 1, "keep 1 event in N after the head fills")
	traceVerdicts := flag.Bool("trace-verdicts", false,
		"capture only conditioner verdicts, drops, deliveries and TCP events")
	traceFlow := flag.Int("trace-flow", 0, "capture only this flow id (0 = every flow)")
	traceFormatFlag := flag.String("trace-format", "jsonl",
		"trace encoding: jsonl (line-oriented v1) or v2 (binary, ~5x denser)")
	traceSpillFlag := flag.Bool("trace-spill", false,
		"stream the complete filtered capture to disk during the run, unbounded by -trace-cap (implies -trace-format v2)")
	traceDigestFlag := flag.Bool("trace-digest", false,
		"write a behavioral .digest beside each sealed trace (requires -trace; input to dstrace -compare-golden)")
	flag.Parse()
	// explicit records which flags the user actually set, so defaults
	// and deliberate choices can be told apart (resolveTraceFormat,
	// scenario-file auto-selection).
	explicit := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	plotMode = *plot
	parallelism = *parallel
	shardCount = *shards
	if *bucket < 0 {
		fmt.Fprintf(os.Stderr, "-bucket-width must be >= 0, got %v\n", *bucket)
		os.Exit(2)
	}
	bucketWidth = units.Time(*bucket)
	if err := validateScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateTraceFlow(*traceFlow); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	jsonPath = *jsonFlag
	traceDir = *trace
	traceCfg = ptrace.Config{Capacity: *traceCap, Head: *traceHead, Sample: *traceSample}
	if *traceVerdicts {
		traceCfg.Kinds = ptrace.VerdictKinds()
	}
	if *traceFlow > 0 {
		traceCfg.Flows = []packet.FlowID{packet.FlowID(*traceFlow)}
	}
	traceSpill = *traceSpillFlag
	var formatErr error
	traceFormat, formatErr = resolveTraceFormat(*traceFormatFlag, explicit["trace-format"], traceSpill)
	if formatErr != nil {
		fmt.Fprintln(os.Stderr, formatErr)
		os.Exit(2)
	}
	traceDigest = *traceDigestFlag
	if traceDigest && traceDir == "" {
		fmt.Fprintln(os.Stderr,
			"-trace-digest requires -trace DIR (digests are written beside the traces they summarize)")
		os.Exit(2)
	}
	if *scenarioFile != "" {
		s, err := scenfile.LoadAndRegister(*scenarioFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// A scenario file names one workload; run it by default. An
		// explicit -scenario/-run selection still wins, so a preset
		// re-expressed as a file can be compared against its Go twin
		// in a single invocation.
		if *scenario == "" && !explicit["run"] {
			*scenario = s.Name()
		}
	}

	all := artifacts()
	if *list {
		for _, a := range all {
			fmt.Printf("%-8s %s\n", a.name, a.desc)
		}
		fmt.Printf("\nscenarios (runnable via -scenario): %s\n",
			strings.Join(experiment.Names(), ", "))
		return
	}
	if *scenario != "" {
		s := experiment.Lookup(*scenario)
		if s == nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (known: %s)\n",
				*scenario, strings.Join(experiment.Names(), ", "))
			os.Exit(2)
		}
		rejectUnshardable(map[string]bool{s.Name(): true}, false)
		fmt.Println(scenarioArtifact(s).run(*scale))
		if jsonPath != "" {
			if err := writeJSON(jsonPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	want := map[string]bool{}
	if *run != "all" {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var known []string
		for _, a := range all {
			known = append(known, a.name)
		}
		sort.Strings(known)
		for n := range want {
			found := false
			for _, k := range known {
				if k == n {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown artifact %q (known: %s)\n", n, strings.Join(known, ", "))
				os.Exit(2)
			}
		}
	}
	rejectUnshardable(want, *run == "all")
	rejectWidthBlind(all, want, *run == "all")
	for _, a := range all {
		if *run != "all" && !want[a.name] {
			continue
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(a.run(*scale))
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
