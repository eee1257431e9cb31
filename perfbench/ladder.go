package main

import (
	"time"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

// The layer ladder times stacks of layers fed with inputs shaped like
// qbone-paper's backbone hop: a 45 Mbps, 5 ms link carrying Poisson
// MTU-sized arrivals at the video's 1.7 Mbps (EF) plus 15% best-effort
// cross load. Each rung adds one layer to the rung before it, so the
// difference between two rungs is that layer's cost per unit:
//
//	sim       self-rescheduling Timer chain (ns per event)
//	link      + packet arena and a FIFO link (ns per packet)
//	priority  link with the EF priority scheduler instead of FIFO
//	drr, wfq  link with a DRR / WFQ two-class scheduler instead
//	policer   priority rung + the EF token-bucket policer
//	paced     policer rung with the video from server.Paced into a client
//	mixture   policer rung with the video from a batched mixture fan-out
//	eval      client MPEG decode + render concealment + VQM (ns per frame)

const (
	ladderPackets = 200000 // work units per rep of the synthetic rungs
	ladderReps    = 5
	hopRate       = 45 * units.Mbps
	hopDelay      = 5 * units.Millisecond
	videoRate     = 1.7e6
	crossRate     = 0.15 * 45e6
)

type rungResult struct {
	name string
	ns   float64
}

// ladderSource is a Poisson arrival process of MTU packets: with
// probability efShare a packet is EF flow 1 handed to ef, otherwise a
// best-effort flow 2 packet handed to be. With nil handlers it only
// reschedules itself — the bare simulator rung.
type ladderSource struct {
	s       *sim.Simulator
	rng     *sim.RNG
	pool    *packet.Pool
	ef, be  packet.Handler
	efShare float64
	mean    float64 // mean inter-arrival, ns
	until   units.Time
	left    int
	sent    int
}

func newLadderSource(s *sim.Simulator, pool *packet.Pool, rate, efShare float64, n int) *ladderSource {
	pps := rate / float64(units.EthernetMTU*8)
	return &ladderSource{s: s, rng: s.RNG().Fork(), pool: pool, efShare: efShare,
		mean: 1e9 / pps, left: n, until: -1}
}

func (src *ladderSource) start() { src.s.AfterTimer(units.Time(src.rng.Exp(src.mean)), src) }

// Fire implements sim.Timer.
func (src *ladderSource) Fire(now units.Time) {
	ef := src.rng.Float64() < src.efShare
	if src.be != nil {
		p := src.pool.Get()
		p.Size, p.SentAt = units.EthernetMTU, now
		if ef {
			p.Flow, p.DSCP = 1, packet.EF
			src.ef.Handle(p)
		} else {
			p.Flow, p.DSCP = 2, packet.BestEffort
			src.be.Handle(p)
		}
	}
	src.sent++
	src.left--
	next := now + units.Time(src.rng.Exp(src.mean))
	if src.left > 0 && (src.until < 0 || next <= src.until) {
		src.s.AtTimer(next, src)
	}
}

// timed runs fn ladderReps times and returns the median ns per unit,
// fn returning the units of work it did.
func timed(fn func() int) float64 {
	vs := make([]float64, ladderReps)
	for i := range vs {
		start := time.Now()
		n := fn()
		vs[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(vs)
}

func twoClasses() []queue.ClassSpec {
	return []queue.ClassSpec{
		{Name: "ef", Match: queue.MatchDSCP(packet.EF), Limit: 400},
		{Name: "be", Limit: 400},
	}
}

// hopRung runs the synthetic arrival stream into a hop built by mk
// (which returns the handlers for EF and best-effort packets).
func hopRung(mk func(s *sim.Simulator, pool *packet.Pool) (ef, be packet.Handler)) func() int {
	return func() int {
		s := sim.New(1)
		pool := packet.NewPool()
		src := newLadderSource(s, pool, videoRate+crossRate, videoRate/(videoRate+crossRate), ladderPackets)
		if mk != nil {
			src.ef, src.be = mk(s, pool)
		}
		src.start()
		s.Run()
		return src.sent
	}
}

func hopLink(s *sim.Simulator, pool *packet.Pool, sched queue.Scheduler, next packet.Handler) *link.Link {
	l := link.New(s, hopRate, hopDelay, sched, next)
	l.Pool = pool
	return l
}

func linkWith(sched func() queue.Scheduler) func(*sim.Simulator, *packet.Pool) (packet.Handler, packet.Handler) {
	return func(s *sim.Simulator, pool *packet.Pool) (packet.Handler, packet.Handler) {
		l := hopLink(s, pool, sched(), &packet.Sink{Pool: pool})
		return l, l
	}
}

func policed(s *sim.Simulator, pool *packet.Pool, next packet.Handler) *tokenbucket.Policer {
	pol := tokenbucket.NewPolicer(s, videoRate, 3000, packet.EF, next)
	pol.Pool = pool
	return pol
}

// pacedRun streams enc from server.Paced through the policer onto the
// priority hop beside best-effort cross traffic until the clip ends; it
// returns the packets carried and the receiving client.
func pacedRun(enc *video.Encoding) (int, *client.UDP) {
	s := sim.New(1)
	pool := packet.NewPool()
	cl := client.NewUDP(s, enc.Clip.FrameCount())
	cl.Pool = pool
	cl.Tolerance = client.SliceTolerance
	sink := &packet.Sink{Pool: pool}
	demux := packet.HandlerFunc(func(p *packet.Packet) {
		if p.Flow == 1 {
			cl.Handle(p)
		} else {
			sink.Handle(p)
		}
	})
	l := hopLink(s, pool, queue.NewEFPriority(400, 400), demux)
	srv := &server.Paced{Sim: s, Enc: enc, Flow: 1, Next: policed(s, pool, l), Pool: pool}
	horizon := units.FromSeconds(enc.Clip.DurationSeconds() + 1)
	cross := newLadderSource(s, pool, crossRate, 0, 1<<30)
	cross.be, cross.until = l, horizon
	srv.Start()
	cross.start()
	s.SetHorizon(horizon)
	s.Run()
	cl.Finish()
	return srv.Sent + cross.sent, cl
}

// mixtureRun is the same hop fed by a batched mixture fan-out, one
// policer per virtual flow; it returns the packets carried.
func mixtureRun(classes []flowbatch.MixtureClass, span units.Time) int {
	s := sim.New(1)
	pool := packet.NewPool()
	l := hopLink(s, pool, queue.NewEFPriority(400, 400), &packet.Sink{Pool: pool})
	n := 0
	for _, c := range classes {
		n += c.N
	}
	next := make([]packet.Handler, n)
	for i := range next {
		next[i] = policed(s, pool, l)
	}
	mix := &flowbatch.BatchedMixture{Sim: s, Classes: classes, BaseFlow: 1, Next: next, Pool: pool}
	cross := newLadderSource(s, pool, crossRate, 0, 1<<30)
	cross.be, cross.until = l, span
	mix.Start()
	cross.start()
	s.SetHorizon(span + units.Second)
	s.Run()
	return mix.TotalSent() + cross.sent
}

// runLadder times every rung.
func runLadder() []rungResult {
	lost := video.CachedCBR(video.Lost(), videoRate)
	// Mixture: three viewers and one elephant, as the fleet's classes,
	// each streaming a 10 s prefix with flows 250 ms apart.
	prefix := 10 * units.Second
	chain := flowbatch.ChainSpec{AccessRate: 10 * units.Mbps, AccessDelay: units.Millisecond, JitterMax: 3 * units.Millisecond}
	classes := []flowbatch.MixtureClass{
		{Sched: flowbatch.TruncateSchedule(flowbatch.CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), prefix),
			N: 3, Offset: 250 * units.Millisecond, Chain: chain},
		{Sched: flowbatch.TruncateSchedule(flowbatch.CachedPacedSchedule(video.CachedCBR(video.Dark(), 1.5e6)), prefix),
			N: 1, Phase: units.Millisecond, Offset: 250 * units.Millisecond, Chain: chain},
	}

	rungs := []rungResult{
		{"ladder.sim_ns_per_event", timed(hopRung(nil))},
		{"ladder.link_ns_per_pkt", timed(hopRung(linkWith(func() queue.Scheduler { return queue.NewSingleFIFO(800) })))},
		{"ladder.priority_ns_per_pkt", timed(hopRung(linkWith(func() queue.Scheduler { return queue.NewEFPriority(400, 400) })))},
		{"ladder.drr_ns_per_pkt", timed(hopRung(linkWith(func() queue.Scheduler { return queue.NewDRR(twoClasses()...) })))},
		{"ladder.wfq_ns_per_pkt", timed(hopRung(linkWith(func() queue.Scheduler { return queue.NewWFQ(twoClasses()...) })))},
		{"ladder.policer_ns_per_pkt", timed(hopRung(func(s *sim.Simulator, pool *packet.Pool) (packet.Handler, packet.Handler) {
			l := hopLink(s, pool, queue.NewEFPriority(400, 400), &packet.Sink{Pool: pool})
			return policed(s, pool, l), l
		}))},
		{"ladder.paced_ns_per_pkt", timed(func() int { n, _ := pacedRun(lost); return n })},
		{"ladder.mixture_ns_per_pkt", timed(func() int { return mixtureRun(classes, prefix+units.Second) })},
	}
	_, cl := pacedRun(lost)
	eval := timed(func() int {
		ft := client.DecodeMPEG(cl.Trace(), lost)
		d := render.Conceal(ft, render.DefaultOptions())
		vqm.Score(d, lost, lost, vqm.Options{})
		return lost.Clip.FrameCount()
	})
	return append(rungs, rungResult{"ladder.eval_ns_per_frame", eval})
}
