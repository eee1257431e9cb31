// Command perfbench is the repository benchmark: one process that drives
// a workload through the public functions of the simulator's layers
// (video, topology, client, render, vqm, ptrace), checks every output,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload qbone-paper --seed 2001 --seconds 30 --trace 0
//
// With --trace 0 the run measures with spans off and reports the
// end-to-end metrics (wall_s, cpu_s, setup_s, peak_rss_mb). With
// --trace 1 it spends half its time on an untraced phase and half on a
// traced phase that wraps a span around every public call, then runs
// the layer ladder, and reports the per-layer metrics, the ladder rungs
// and the tracing overhead. The traced phase also writes a CPU profile
// labelled {workload, span} under .bench_build/perfbench/.
//
// The seed generates the workload's inputs (simulation seeds); the
// default seed 2001 is the one every published figure uses, and its
// outputs are checked against the stored values in expected/. Any
// other seed is checked for conservation instead. Every point runs at
// least twice and its outputs and counters must repeat exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// processStart anchors setup_s: the first setup is timed from process
// start, the repeats from their own start.
var processStart = time.Now()

// defaultSeed is the seed whose outputs are stored in expected/ (the
// repository's experiment.DefaultSeed).
const defaultSeed = 2001

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 21

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 30, "measured time per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	update := flag.Bool("update-expected", false, "rewrite perfbench/expected/ from this run (default seed only)")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *update && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --update-expected needs the default seed %d\n", defaultSeed)
		return 2
	}
	w := newWorkload(*name, *seed, !*update)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := w.setup(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups[i] = time.Since(start).Seconds()
	}
	h := &harness{w: w}
	var metrics map[string]metric
	if *traced == 0 {
		m := h.measure(budget, nil)
		m.report(w.name())
		metrics = map[string]metric{
			"wall_s":      {m.wallS(), "s"},
			"cpu_s":       {m.cpuS(), "s"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		}
	} else {
		var err error
		if metrics, err = h.tracedRun(budget, profileStem(*name, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
	}
	correct := h.failed == 0 && len(h.problems) == 0
	for _, p := range h.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if *update && correct {
		if err := writeExpected(w.name(), h.first); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	printTable(w.name(), metrics)
	out, err := json.Marshal(result{Correct: correct, Attempted: h.attempted, Failed: h.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printTable lists every metric by name with its unit and, where
// claims.json has one, the claim it carries.
func printTable(workload string, metrics map[string]metric) {
	cl := loadClaims()
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s (%s)\n", workload, buildVersion())
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("  %-30s %16.6g %-6s %s\n", n, m.Value, m.Unit, cl[n])
	}
}

func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return "unknown go"
}
