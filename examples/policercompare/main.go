// Policer comparison: three ablations the paper motivates but could
// not (or chose not to) run on its testbeds:
//
//  1. drop-policing vs shaping at the QBone border, at every depth;
//  2. the large-datagram server's rate-adaptation death spiral behind
//     an EF policer (§4 narrative, reproduced live);
//  3. a multi-rate "intelligent streaming" server that treats loss as
//     congestion and steps down instead of up.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

func main() {
	scenario := flag.String("scenario", "", "run a registered figure scenario instead of the ablations")
	parallel := flag.Int("parallel", 0, "worker-pool size for the simulation grids (0 = all cores)")
	flag.Parse()

	if *scenario != "" {
		s := experiment.Lookup(*scenario)
		if s == nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (known: %s)\n",
				*scenario, strings.Join(experiment.Names(), ", "))
			os.Exit(2)
		}
		fmt.Print(experiment.RunScenario(s, *parallel).Format())
		return
	}
	dropVsShape(*parallel)
	deathSpiral()
	adaptive()
}

func dropVsShape(parallel int) {
	fmt.Println("== 1. Drop vs shape at the QBone border (Lost @ 1.7M) ==")
	enc := video.CachedCBR(video.Lost(), 1.7*units.Mbps)
	fmt.Printf("%-10s %-8s %-14s %-14s\n", "Token", "Depth", "drop: QI", "shape: QI")
	type cell struct {
		tok   units.BitRate
		depth units.ByteSize
		shape bool
	}
	var cells []cell
	for _, tok := range []units.BitRate{1.6e6, 1.75e6, 1.9e6} {
		for _, depth := range []units.ByteSize{3000, 4500} {
			cells = append(cells, cell{tok, depth, false}, cell{tok, depth, true})
		}
	}
	// The whole grid fans out on the runner; results come back in cell
	// order, so the table prints identically at every -parallel value.
	jobs := make([]func() float64, len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func() float64 {
			q := topology.BuildQBone(topology.QBoneConfig{
				Seed: experiment.DefaultSeed, Enc: enc,
				TokenRate: c.tok, Depth: c.depth, Shape: c.shape,
			})
			q.Client.Tolerance = client.SliceTolerance
			q.Run()
			return experiment.Evaluate(q.Client.Trace(), enc, enc).Quality
		}
	}
	quality := runner.Map(parallel, jobs)
	for i := 0; i < len(cells); i += 2 {
		fmt.Printf("%-10v %-8d %-14.3f %-14.3f\n",
			cells[i].tok, int64(cells[i].depth), quality[i], quality[i+1])
	}
	fmt.Println()
}

func deathSpiral() {
	fmt.Println("== 2. Large-datagram server adaptation behind an EF policer ==")
	s := sim.New(experiment.DefaultSeed)
	enc := video.EncodeCBR(video.Lost(), 1.0*units.Mbps)
	cl := client.NewUDP(s, enc.Clip.FrameCount())
	pol := tokenbucket.NewPolicer(s, 1.3*units.Mbps, 3000, packet.EF, cl)
	srv := &server.Burst{Sim: s, Enc: enc, Flow: 1, Next: pol, Adapt: true}
	lastRecv, lastSent := 0, 0
	srv.SetFeedback(func() (float64, units.Time) {
		recv, sent := cl.Packets, srv.Sent
		loss := 0.0
		if sent > lastSent {
			loss = 1 - float64(recv-lastRecv)/float64(sent-lastSent)
		}
		lastRecv, lastSent = recv, sent
		if loss < 0 {
			loss = 0
		}
		return loss, 10 * units.Millisecond
	})
	srv.Start()
	s.SetHorizon(units.FromSeconds(enc.Clip.DurationSeconds() + 5))
	s.Run()
	fmt.Println("rate multiplier over time (1.0 = nominal; the estimator reads")
	fmt.Println("policing loss + low delay as 'send faster'):")
	for i, m := range srv.Multipliers {
		if i%5 == 0 {
			fmt.Printf("  t=%2ds multiplier=%.2f\n", i+1, m)
		}
	}
	fmt.Printf("policer loss: %.1f%%; frames delivered: %d of %d\n\n",
		100*pol.LossFraction(), len(cl.Finish().Records), enc.Clip.FrameCount())
}

func adaptive() {
	fmt.Println("== 3. Multi-rate adaptive server (steps DOWN on loss) ==")
	s := sim.New(experiment.DefaultSeed)
	clip := video.Lost()
	encs := []*video.Encoding{
		video.EncodeCBR(clip, 0.7e6),
		video.EncodeCBR(clip, 1.0e6),
		video.EncodeCBR(clip, 1.5e6),
	}
	cl := client.NewUDP(s, clip.FrameCount())
	cl.Tolerance = client.SliceTolerance
	pol := tokenbucket.NewPolicer(s, 1.15*units.Mbps, 4500, packet.EF, cl)
	srv := &server.Adaptive{Sim: s, Encs: encs, Flow: 1, Next: pol}
	lastRecv, lastSent := 0, 0
	srv.SetFeedback(func() float64 {
		recv, sent := cl.Packets, srv.Sent
		loss := 0.0
		if sent > lastSent {
			loss = 1 - float64(recv-lastRecv)/float64(sent-lastSent)
		}
		lastRecv, lastSent = recv, sent
		if loss < 0 {
			loss = 0
		}
		return loss
	})
	srv.Start()
	s.SetHorizon(units.FromSeconds(clip.DurationSeconds() + 5))
	s.Run()
	fmt.Printf("final level: %d (%v); switches: %d\n",
		srv.Level(), encs[srv.Level()].Target, srv.Switches)
	// A slice indexed by level prints the histogram in level order.
	hist := make([]int, len(encs))
	for _, l := range srv.Levels {
		hist[l]++
	}
	for l, n := range hist {
		if n > 0 {
			fmt.Printf("  level %d (%v): %d s\n", l, encs[l].Target, n)
		}
	}
	tr := cl.Finish()
	fmt.Printf("frame delivery: %d of %d (loss %.2f%%) — the stream converged to\n",
		len(tr.Records), clip.FrameCount(), 100*tr.FrameLossFraction())
	fmt.Println("the largest encoding below the token rate, the paper's rule of thumb.")
}
