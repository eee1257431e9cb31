package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// outDir holds what a traced run leaves behind (profile and spans),
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// tracer records a span around each public call of a traced run and
// labels the CPU profile with {workload, span}. A nil *tracer is the
// untraced mode: span just calls fn.
type tracer struct {
	ctx    context.Context
	epoch  time.Time
	parent string
	point  int
	rep    map[int]int
	cur    map[string]float64 // span seconds of the point run in flight
	spans  []spanRecord
}

// spanRecord is one finished span, as written to the spans file.
type spanRecord struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Point   int    `json:"point"`
	Rep     int    `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer(workload string) *tracer {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("workload", workload))
	return &tracer{ctx: ctx, epoch: time.Now(), rep: map[int]int{}}
}

// begin starts the spans of one run of point i.
func (t *tracer) begin(i int) {
	t.point = i
	t.cur = map[string]float64{}
}

// end closes the point run and returns its per-span seconds.
func (t *tracer) end() map[string]float64 {
	t.rep[t.point]++
	cur := t.cur
	t.cur = nil
	return cur
}

// span runs fn as the named span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := t.parent
	t.parent = name
	start := time.Now()
	pprof.Do(t.ctx, pprof.Labels("span", name), func(context.Context) { fn() })
	end := time.Now()
	t.parent = parent
	t.cur[name] += end.Sub(start).Seconds()
	t.spans = append(t.spans, spanRecord{
		Name: name, Parent: parent, Point: t.point, Rep: t.rep[t.point],
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
}

// profile starts the CPU profile of the traced phase; the returned
// function stops it and writes the spans beside it.
func (t *tracer) profile(stem string) (stop func() error, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir, stem+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		data, err := json.Marshal(t.spans)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(outDir, stem+".spans.json"), data, 0o644)
	}, nil
}

// profileStem names a traced run's output files.
func profileStem(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d", workload, seed)
}
