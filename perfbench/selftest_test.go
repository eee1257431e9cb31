package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/ptrace"
	"repro/internal/units"
)

// The self-tests prove the benchmark measures the same program the
// figures come from: each workload's public-call recipe reproduces the
// experiment package's own points exactly. Run them with
// `go test` from this directory.

func mustSetup(t *testing.T, w workload) {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
}

func TestQBoneRecipeMatchesExperiment(t *testing.T) {
	w := newWorkload("qbone-paper", experiment.DefaultSeed, false).(*qbonePaper)
	mustSetup(t, w)
	spec := experiment.Figure7Spec()
	spec.Tokens = w.tokens
	if testing.Short() {
		spec.Tokens = w.tokens[2:3]
		spec.Depths = spec.Depths[:1]
	}
	fig := experiment.RunScenario(spec, 1)
	for di, s := range fig.Series {
		for ti, want := range s.Points {
			i := di*len(w.tokens) + ti
			if testing.Short() {
				i = 2
			}
			res, err := w.run(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := res.out.(qbonePoint)
			if int64(want.TokenRate) != got.TokenBps || int64(want.Depth) != got.Depth ||
				want.FrameLoss != got.FrameLoss || want.Quality != got.Quality ||
				want.PacketLoss != got.PacketLoss || want.Calibration != got.Calibration ||
				want.Events != got.Events {
				t.Errorf("point %d: experiment %+v, benchmark %+v", i, want, got)
			}
		}
	}
}

func TestFleetRecipeMatchesExperiment(t *testing.T) {
	const n = 2000
	w := newWorkload("fleet-mixture", experiment.DefaultSeed, false).(*fleetMixture)
	w.n = n
	mustSetup(t, w)
	spec := experiment.NFlowFleetSpec()
	spec.Ns = []int{n}
	want := experiment.RunScenario(spec, 1).Series[0].Points[0]
	res, err := w.run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.out.(fleetPoint)
	if got.PolicerLoss != want.PacketLoss || got.Events != want.Events || len(got.Classes) != len(want.Classes) {
		t.Fatalf("experiment %+v, benchmark %+v", want, got)
	}
	for ci, c := range want.Classes {
		g := got.Classes[ci]
		if g.Name != c.Name || g.Flows != c.Flows || g.ScheduledPackets != c.ScheduledPackets ||
			g.Packets != c.Packets || g.Bytes != c.Bytes {
			t.Errorf("class %d: experiment %+v, benchmark %+v", ci, c, g)
		}
	}
}

func TestTandemRecipeMatchesExperiment(t *testing.T) {
	w := newWorkload("tandem-traced", experiment.DefaultSeed, false).(*tandemTraced)
	mustSetup(t, w)
	spec := experiment.TandemSweepSpec()
	spec.Tokens = []units.BitRate{tandemToken}
	spec.Depth = tandemDepth
	spec.Runs = 1
	dir := t.TempDir()
	fig := experiment.RunScenarioOpts(spec, experiment.RunOptions{Parallel: 1,
		Trace: &experiment.TraceRequest{Dir: dir, Spill: true, Digest: true}})
	want := fig.Series[1].Points[0] // the 2border series

	res, err := w.run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.out.(tandemPoint)
	if want.FrameLoss != got.FrameLoss || want.Quality != got.Quality ||
		want.PacketLoss != got.PacketLoss || want.Calibration != got.Calibration ||
		want.Events != got.Events {
		t.Errorf("experiment %+v, benchmark %+v", want, got)
	}

	digests, err := filepath.Glob(filepath.Join(dir, "tandem-2border-*.digest"))
	if err != nil || len(digests) != 1 {
		t.Fatalf("want one 2border digest in %s, got %v (%v)", dir, digests, err)
	}
	f, err := os.Open(digests[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := ptrace.ReadSummary(f)
	if err != nil {
		t.Fatal(err)
	}
	if d := ptrace.CompareSummaries(sum, res.digest, ptrace.Thresholds{}); !d.Clean() {
		t.Errorf("benchmark digest differs from experiment's:\n%s", d.Format(10))
	}
}

// fakeWorkload returns scripted results, to test the harness checks.
type fakeWorkload struct {
	base
	outs []any
	errs []error
	n    int
}

func (f *fakeWorkload) setup() error { return nil }
func (f *fakeWorkload) points() int  { return 1 }
func (f *fakeWorkload) run(int, *tracer) (pointResult, error) {
	i := f.n
	f.n++
	if i < len(f.errs) && f.errs[i] != nil {
		return pointResult{}, f.errs[i]
	}
	if i < len(f.outs) && f.outs[i] == "panic" {
		panic("boom")
	}
	return pointResult{out: f.outs[i%len(f.outs)], counts: counters{SimEvents: 7}}, nil
}

func TestHarnessCountsFailures(t *testing.T) {
	cases := []struct {
		name   string
		w      *fakeWorkload
		failed int
		why    string
	}{
		{"repeatable", &fakeWorkload{outs: []any{1.5}}, 0, ""},
		{"nondeterministic", &fakeWorkload{outs: []any{1.5, 2.5}}, 1, "differ between repeats"},
		{"conservation", &fakeWorkload{outs: []any{1.5}, errs: []error{nil, errors.New("passed + dropped != offered")}}, 1, "offered"},
		{"panic", &fakeWorkload{outs: []any{1.5, "panic"}}, 1, "panic: boom"},
		{"golden", &fakeWorkload{outs: []any{1.5}, base: base{exp: expected{points: []json.RawMessage{[]byte("2.5")}}}}, 2, "expected/"},
	}
	for _, c := range cases {
		h := &harness{w: c.w}
		h.measure(time.Millisecond, nil)
		if h.failed != c.failed || h.attempted != minReps {
			t.Errorf("%s: attempted %d failed %d, want %d failed of %d", c.name, h.attempted, h.failed, c.failed, minReps)
		}
		if c.why != "" && (len(h.problems) == 0 || !strings.Contains(h.problems[0], c.why)) {
			t.Errorf("%s: problems %q, want one mentioning %q", c.name, h.problems, c.why)
		}
	}
}

func TestStoredOutputsLoad(t *testing.T) {
	for _, name := range workloadList {
		w := newWorkload(name, defaultSeed, true)
		mustSetup(t, w)
		exp := w.expected()
		if len(exp.points) != w.points() {
			t.Errorf("%s: %d stored points, grid has %d", name, len(exp.points), w.points())
		}
		if (name == "tandem-traced") != (exp.digest != nil) {
			t.Errorf("%s: golden digest present = %v", name, exp.digest != nil)
		}
	}
}
