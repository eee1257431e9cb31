package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/ptrace"
	"repro/internal/sim"
)

// minReps is how many times every point runs at least, whatever the
// budget: the determinism self-check needs a second run to compare.
const minReps = 2

// workload is one benchmark input set: a grid of points, each built,
// run and checked through the simulator's public calls.
type workload interface {
	name() string
	// setup synthesizes the clips, encodings and schedules the points
	// use and loads the stored outputs; a run repeats it setupRepeats
	// times.
	setup() error
	expected() expected
	points() int
	// run executes point i, wrapping each public call in a span of tr
	// (nil: spans off). It returns an error when a conservation
	// invariant fails.
	run(i int, tr *tracer) (pointResult, error)
}

// twinner is a workload whose traced phase also times an untraced twin
// of each point, so the cost of the capture it carries can be isolated.
type twinner interface {
	twin(i int, tr *tracer)
}

// pointResult is what one run of a point reports.
type pointResult struct {
	// out holds the checked outputs: compared against the stored values
	// on the default seed and, on every seed, across repeats.
	out any
	// counts are deterministic work counters; they must repeat exactly.
	counts counters
	// digest is the trace digest of a capturing workload (nil otherwise).
	digest *ptrace.Summary
	// queues holds the calendar-queue telemetry of each simulation run.
	queues []sim.QueueStats
	// heapBytes is the live heap right after the simulation (traced
	// runs of workloads that sample it; 0 otherwise).
	heapBytes uint64
}

// counters are the point's deterministic work units.
type counters struct {
	SimEvents      uint64 `json:"sim_events"`
	PolicerPassed  uint64 `json:"policer_passed"`
	PolicerDropped uint64 `json:"policer_dropped"`
	BottleneckSent uint64 `json:"bottleneck_sent"`
	VFlows         uint64 `json:"vflows"`
	TraceEvents    uint64 `json:"trace_events"`
	TraceBytes     uint64 `json:"trace_bytes"`
}

func (c *counters) add(o counters) {
	c.SimEvents += o.SimEvents
	c.PolicerPassed += o.PolicerPassed
	c.PolicerDropped += o.PolicerDropped
	c.BottleneckSent += o.BottleneckSent
	c.VFlows += o.VFlows
	c.TraceEvents += o.TraceEvents
	c.TraceBytes += o.TraceBytes
}

// sample is one timed run of one point.
type sample struct {
	wall, cpu float64 // seconds
	spans     map[string]float64
	mem       memDelta
	res       pointResult
}

// memDelta is the runtime.MemStats difference across one point run.
type memDelta struct {
	mallocs, allocBytes, gcCycles float64
}

// phase is one measured stretch: every successful sample per point.
type phase struct {
	samples [][]sample
}

// perPass sums, over the grid's points, the median over repeats of f:
// the robust cost of one pass over the workload.
func (p phase) perPass(f func(sample) float64) float64 {
	total := 0.0
	for _, ss := range p.samples {
		if len(ss) == 0 {
			continue
		}
		vs := make([]float64, len(ss))
		for j, s := range ss {
			vs[j] = f(s)
		}
		total += median(vs)
	}
	return total
}

func (p phase) wallS() float64 { return p.perPass(func(s sample) float64 { return s.wall }) }
func (p phase) cpuS() float64  { return p.perPass(func(s sample) float64 { return s.cpu }) }

// harness runs a workload's points, checks them and keeps the score.
type harness struct {
	w         workload
	attempted int
	failed    int
	problems  []string
	// first holds each point's first successful result: the reference
	// every repeat must reproduce exactly, and what --update-expected
	// stores.
	first []*pointResult
}

// measure runs passes over the grid until every point has run minReps
// times and the budget is used up: it stops before a run that would end
// more than half a run past the budget.
func (h *harness) measure(budget time.Duration, tr *tracer) phase {
	n := h.w.points()
	if h.first == nil {
		h.first = make([]*pointResult, n)
	}
	ph := phase{samples: make([][]sample, n)}
	tries := make([]int, n)
	last := make([]time.Duration, n)
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			if enough(tries) && time.Since(start)+last[i]/2 > budget {
				return ph
			}
			tries[i]++
			t0 := time.Now()
			if s, ok := h.runPoint(i, tr); ok {
				ph.samples[i] = append(ph.samples[i], s)
			}
			last[i] = time.Since(t0)
		}
	}
}

// report prints each point's repeat count and wall-time spread to
// standard error.
func (p phase) report(workload string) {
	for i, ss := range p.samples {
		vs := make([]float64, len(ss))
		for j, s := range ss {
			vs[j] = s.wall
		}
		sort.Float64s(vs)
		if len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s point %d: %d runs, wall min %.4f median %.4f max %.4f s\n",
				workload, i, len(vs), vs[0], median(vs), vs[len(vs)-1])
		}
	}
}

func enough(tries []int) bool {
	for _, t := range tries {
		if t < minReps {
			return false
		}
	}
	return true
}

// runPoint times one run of point i and checks its outputs.
func (h *harness) runPoint(i int, tr *tracer) (sample, bool) {
	h.attempted++
	// Start every point from a collected heap, so no run pays for the
	// garbage of the one before it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	if tr != nil {
		tr.begin(i)
		runtime.ReadMemStats(&m0)
	}
	t0, c0 := time.Now(), cpuSeconds()
	res, err := safeRun(h.w, i, tr)
	s := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, res: res}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		s.mem = memDelta{
			mallocs:    float64(m1.Mallocs - m0.Mallocs),
			allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
			gcCycles:   float64(m1.NumGC - m0.NumGC),
		}
		if tw, ok := h.w.(twinner); ok && err == nil {
			tw.twin(i, tr)
		}
		s.spans = tr.end()
	}
	if err == nil {
		err = h.check(i, &res)
	}
	if err != nil {
		h.failed++
		h.problems = append(h.problems, fmt.Sprintf("%s point %d: %v", h.w.name(), i, err))
		return s, false
	}
	return s, true
}

// safeRun turns a panicking point into a failed one.
func safeRun(w workload, i int, tr *tracer) (res pointResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(i, tr)
}

// check compares a result against the stored outputs (first run of a
// point on the default seed) and against the point's first run.
func (h *harness) check(i int, res *pointResult) error {
	ref := h.first[i]
	if ref == nil {
		if exp := h.w.expected(); exp.points != nil {
			if i >= len(exp.points) {
				return fmt.Errorf("no stored output for point %d", i)
			}
			if err := sameJSON(exp.points[i], res.out); err != nil {
				return fmt.Errorf("output differs from expected/%s.json: %v", h.w.name(), err)
			}
		}
		h.first[i] = res
		return nil
	}
	if !reflect.DeepEqual(ref.out, res.out) {
		return fmt.Errorf("outputs differ between repeats: %+v vs %+v", ref.out, res.out)
	}
	if ref.counts != res.counts {
		return fmt.Errorf("deterministic counters differ between repeats: %+v vs %+v", ref.counts, res.counts)
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
