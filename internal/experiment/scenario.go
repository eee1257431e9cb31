package experiment

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/runner"
	"repro/internal/units"
)

// Scenario is a paper experiment decomposed for the runner: a figure
// (or figure family) whose points are independent simulation jobs.
//
// Jobs returns one closure per point of the figure grid; each closure
// builds its own simulator, so the slice can be executed on any number
// of goroutines. Assemble receives the results **in job order** —
// results[i] is what Jobs()[i] returned — and folds them back into the
// figure. Because the fold only depends on the (deterministic) results
// and their order, a Scenario produces byte-identical output at every
// parallelism level.
type Scenario interface {
	// Name is the registry key, e.g. "fig7".
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Jobs enumerates the independent simulation jobs of the grid.
	Jobs() []Job
	// Assemble folds job results (ordered by job index) into the figure.
	Assemble(results []Point) *Figure
}

// Job is one independent simulation: it runs a full (possibly
// seed-averaged) experiment and reduces it to a Point. The Ctx is
// owned by the executing worker: its Pool is the worker's packet
// arena, reused across consecutive jobs so pools never cross
// goroutines and steady-state jobs allocate no packets; its Trace is
// the run-wide trace request (nil in the common untraced case). Jobs
// must build their simulation on the given pool (or ignore it and pay
// the allocations), and may save a bounded packet trace through the
// Ctx when tracing is requested.
type Job func(ctx *Ctx) Point

// Ctx is what the runner hands each job.
type Ctx struct {
	Pool  *packet.Pool
	Trace *TraceRequest

	// Shards is the intra-run shard count each job should request from
	// its topology (dsbench -shards); see RunOptions.Shards. The
	// assembled figure is byte-identical at any value apart from the
	// serial mixture engine's tie-breaking (the shardeq harness pins
	// this), so the knob trades cores-per-job against jobs-in-flight.
	Shards int

	// BucketWidth overrides the calendar-queue bucket width of each
	// job's simulator (dsbench -bucket-width; 0 keeps the scenario's or
	// simulator's default). A pure performance knob: results are
	// byte-identical at any width.
	BucketWidth units.Time
}

// NewRecorder returns a bounded packet-trace recorder per the run's
// trace request, or nil when tracing is off — which is exactly the
// nil Tap the topology layer interprets as "disabled". When the
// request asks for spilling, the recorder streams its capture to a
// temporary file in the trace directory as the run progresses;
// SaveTrace seals and renames it into place.
func (c *Ctx) NewRecorder() *ptrace.Recorder {
	if c == nil || c.Trace == nil {
		return nil
	}
	rec := ptrace.NewRecorder(c.Trace.Config)
	if c.Trace.Spill {
		if err := c.Trace.startSpill(rec); err != nil {
			panic(fmt.Sprintf("experiment: trace spill: %v", err))
		}
	}
	return rec
}

// SaveTrace writes rec under the trace directory as
// "<scenario>-<label>.ptrace". A nil recorder is a no-op, so call
// sites need no tracing-enabled guard of their own.
func (c *Ctx) SaveTrace(label string, rec *ptrace.Recorder) error {
	if rec == nil || c == nil || c.Trace == nil {
		return nil
	}
	return c.Trace.save(label, rec)
}

// TraceRequest asks a scenario run to dump per-point packet traces:
// each traced job records into a bounded ptrace.Recorder and writes
// one .ptrace file per point into Dir. The request is shared by every
// worker; concurrent saves are safe because every grid point labels a
// distinct file (jobs must include any extra grid dimension in the
// label), and the shared file list is mutex-guarded.
type TraceRequest struct {
	Dir    string
	Config ptrace.Config

	// Format selects the on-disk encoding: "jsonl" (the default,
	// ptrace v1) or "v2" (binary). Spilled traces are always v2 — the
	// JSONL header carries the event count up front, so it cannot be
	// streamed during a run.
	Format string

	// Spill streams every capture-surviving event to disk as the run
	// progresses, unbounded by Config.Capacity: the complete filtered
	// capture lands in the .ptrace file while the in-RAM ring stays at
	// its fixed size. Sampling (Config.Sample) still applies, which is
	// what keeps a fleet-scale spill file's size in hand.
	Spill bool

	// Digest writes a "<scenario>-<label>.digest" beside every sealed
	// .ptrace — the bounded ptrace.Summary serialized by
	// ptrace.WriteSummary — so a run can be gated against a stored
	// golden with `dstrace -compare-golden`.
	Digest bool

	scenario string
	mu       sync.Mutex
	files    []string
	spills   map[*ptrace.Recorder]*spillState
}

// spillState is one recorder's open spill file, held until SaveTrace
// seals and renames it.
type spillState struct {
	f  *os.File
	bw *bufio.Writer
}

// startSpill opens a temporary spill file next to the final trace
// location (same directory, so the sealing rename stays atomic) and
// attaches it to the recorder.
func (tr *TraceRequest) startSpill(rec *ptrace.Recorder) error {
	f, err := os.CreateTemp(tr.Dir, ".spill-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	rec.SpillTo(bw)
	tr.mu.Lock()
	if tr.spills == nil {
		tr.spills = map[*ptrace.Recorder]*spillState{}
	}
	tr.spills[rec] = &spillState{f: f, bw: bw}
	tr.mu.Unlock()
	return nil
}

// Files lists the trace files written so far (base names).
func (tr *TraceRequest) Files() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.files...)
}

// sanitizeLabel keeps file names shell-friendly.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// save writes the recorder's capture to its final name atomically:
// the bytes land in a temporary file in the same directory and only an
// os.Rename publishes them, so a crashed or interrupted run never
// leaves a half-written .ptrace that a later dstrace would trip over.
// Spilled recorders already streamed their events; save seals the v2
// trailer and renames the spill file into place.
func (tr *TraceRequest) save(label string, rec *ptrace.Recorder) error {
	name := sanitizeLabel(tr.scenario + "-" + label + ".ptrace")
	path := filepath.Join(tr.Dir, name)

	tr.mu.Lock()
	sp := tr.spills[rec]
	delete(tr.spills, rec)
	tr.mu.Unlock()

	if sp != nil {
		err := rec.FinishSpill()
		if ferr := sp.bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := sp.f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(sp.f.Name(), path)
		}
		if err != nil {
			os.Remove(sp.f.Name())
			return err
		}
	} else {
		d := rec.Data()
		err := atomicfile.WriteTo(path, func(w io.Writer) error {
			var werr error
			if tr.Format == "v2" {
				_, werr = d.WriteV2To(w)
			} else {
				_, werr = d.WriteTo(w)
			}
			return werr
		})
		if err != nil {
			return err
		}
	}
	if tr.Digest {
		if err := tr.writeDigest(path); err != nil {
			return err
		}
	}
	tr.mu.Lock()
	tr.files = append(tr.files, name)
	tr.mu.Unlock()
	return nil
}

// writeDigest re-reads the sealed trace (spilled traces never held the
// full capture in memory, so the file is the only complete source) and
// publishes its bounded summary beside it.
func (tr *TraceRequest) writeDigest(tracePath string) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	s, _, err := ptrace.AnalyzeStream(f, 0)
	if err != nil {
		return err
	}
	digestPath := strings.TrimSuffix(tracePath, ".ptrace") + ".digest"
	return atomicfile.WriteTo(digestPath, func(w io.Writer) error {
		return ptrace.WriteSummary(w, s)
	})
}

// Scalable is implemented by scenarios whose token sweep can be
// thinned for quick passes (dsbench -scale).
type Scalable interface {
	Scenario
	// Scaled returns a copy keeping every n-th token-sweep point.
	Scaled(n int) Scenario
}

// ShardCapable is implemented by scenarios whose jobs honor the
// intra-run shard knob (RunOptions.Shards / dsbench -shards).
// Scenarios without the method would silently run serial under
// -shards, so dsbench rejects the combination up front instead.
type ShardCapable interface {
	Scenario
	// SupportsShards reports whether the scenario's jobs dispatch to a
	// sharded pipeline when Ctx.Shards > 1.
	SupportsShards() bool
}

// SupportsSharding reports whether s honors the intra-run shard knob.
func SupportsSharding(s Scenario) bool {
	sc, ok := s.(ShardCapable)
	return ok && sc.SupportsShards()
}

// RunScenario executes the scenario's jobs on a runner pool of the
// given size (<= 0 means GOMAXPROCS, 1 means strictly serial) and
// assembles the figure. This is the single execution path for every
// figure: the serial and parallel cases differ only in worker count,
// never in result.
func RunScenario(s Scenario, parallel int) *Figure {
	return RunScenarioTrace(s, parallel, nil)
}

// RunScenarioTrace is RunScenario with an optional per-point packet
// trace request (dsbench -trace). Tracing is pure observation: the
// assembled figure is byte-identical with tr nil or set.
func RunScenarioTrace(s Scenario, parallel int, tr *TraceRequest) *Figure {
	return RunScenarioOpts(s, RunOptions{Parallel: parallel, Trace: tr})
}

// RunOptions bundles the execution knobs of a scenario run. The
// zero value is the default serial-result configuration: a
// GOMAXPROCS-sized job pool, no tracing, serial (unsharded) jobs.
type RunOptions struct {
	// Parallel is the job-pool size (<= 0 means GOMAXPROCS, 1 strictly
	// serial).
	Parallel int
	// Trace requests per-point packet traces.
	Trace *TraceRequest
	// Shards asks each job to run its simulation on the intra-run
	// sharded pipeline with this many shards (see
	// topology.MultiFlowConfig.Shards for what <= 1 runs). Results are
	// byte-identical at any value, except that class mixtures at <= 1
	// run the serial mixture engine, which can break a same-instant tie
	// differently.
	Shards int
	// BucketWidth overrides each job's calendar-queue bucket width
	// (0 keeps defaults). Results are byte-identical at any width.
	BucketWidth units.Time
}

// RunScenarioOpts executes the scenario's jobs under the given
// options and assembles the figure. This is the single execution path
// for every figure: parallelism level, tracing, and intra-run
// sharding never change the assembled result.
func RunScenarioOpts(s Scenario, opts RunOptions) *Figure {
	if tr := opts.Trace; tr != nil {
		tr.scenario = s.Name()
		if err := os.MkdirAll(tr.Dir, 0o755); err != nil {
			panic(fmt.Sprintf("experiment: trace dir: %v", err))
		}
	}
	jobs := s.Jobs()
	fns := make([]func(*Ctx) Point, len(jobs))
	for i, j := range jobs {
		fns[i] = j
	}
	newCtx := func() *Ctx {
		return &Ctx{Pool: packet.NewPool(), Trace: opts.Trace, Shards: opts.Shards,
			BucketWidth: opts.BucketWidth}
	}
	return s.Assemble(runner.MapArena(opts.Parallel, newCtx, fns))
}

// The scenario registry. Scenarios register at init time (figures.go);
// commands list and select them by name.
var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario under its Name. Registering an empty or
// duplicate name panics: both are wiring bugs worth failing loudly on.
func Register(s Scenario) {
	name := s.Name()
	if name == "" {
		panic("experiment: Register with empty scenario name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: duplicate scenario %q", name))
	}
	registry[name] = s
}

// Lookup returns the scenario registered under name, or nil.
func Lookup(name string) Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name]
}

// Names lists the registered scenario names in natural order: "fig7"
// sorts before "fig10", so listings read in paper order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return naturalLess(out[i], out[j]) })
	return out
}

// naturalLess compares names numerically where both share a leading
// alphabetic prefix with a trailing integer ("fig7" < "fig10").
func naturalLess(a, b string) bool {
	pa, na, oka := splitTrailingInt(a)
	pb, nb, okb := splitTrailingInt(b)
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

func splitTrailingInt(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n, true
}

// Scenarios returns the registered scenarios sorted by name.
func Scenarios() []Scenario {
	names := Names()
	out := make([]Scenario, len(names))
	for i, n := range names {
		out[i] = Lookup(n)
	}
	return out
}
