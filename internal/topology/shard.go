package topology

import (
	"time"

	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// Sharded intra-run execution: one big run partitioned across cores.
//
// The experiment topologies are trees of source-side access chains
// (a paced server or batched virtual flow, its dedicated access link,
// its jitter element) joining at shared border elements (policers, the
// bottleneck, the demux, the clients). Everything upstream of the
// jitter element is deterministic per-flow arithmetic — no RNG, no
// cross-flow coupling — so those chains can advance on private
// per-shard simulators in parallel. Everything from the first shared
// or RNG-consuming element on runs serially on the border simulator,
// replaying the shards' emissions in exact global order, so a sharded
// run is bit-identical to the serial one (the shardeq harness in
// internal/experiment pins this). Batched runs take this path at every
// shard count, one worker being their serial form; see MultiFlow.Run.
//
// # The lookahead rule
//
// Shards advance in conservative lookahead windows derived from the
// minimum latency of the access chain feeding the border: a packet
// emitted by a source at time t cannot reach the border before
// t + minLatency (propagation delay plus the serialization time of
// the smallest packet), so once every shard has advanced past a
// frontier F, every border arrival before F is known. The topology is
// feed-forward — nothing flows from the border back into a chain — so
// the window width governs pipelining grain and buffering, never
// correctness; it is sized at a multiple of the chain latency
// (lookaheadScale) so each cross-thread hand-off carries a meaningful
// batch.
//
// # Border-merge ordering
//
// Shard emissions carry their exact simulated instants. The border
// drains them in global (time, flow-or-shard) order, and before
// applying an emission at time t it first fires every border event
// strictly before t (sim.RunBefore) and advances the clock to exactly
// t (sim.AdvanceTo), so policers conform-check, taps stamp, and
// downstream queues evolve against the identical timeline the serial
// run produces. Same-instant ties between an injected packet and a
// native border event are resolved injection-first where a serial run
// resolves them in event-sequence order; the tie set is measure-zero
// (jittered delivery instants against lattice-valued link events) and
// the differential harness pins its absence on the tested grids — the
// same standard flow batching set (see internal/flowbatch).
type ShardStats struct {
	// Shards is the effective shard-worker count (requested count
	// capped at the number of partitionable chains).
	Shards int
	// ShardFired counts work done off the border simulator: timer
	// firings on shard-private simulators in chain-clone mode, arrivals
	// walked by the direct generators in batched mode. The border
	// simulator's own count is reported by Sim.Fired() as usual.
	ShardFired uint64
	// Injected counts shard emissions replayed at the border.
	Injected int
	// StallRatio is the fraction of the border goroutine's replay
	// wall-clock spent blocked waiting on shard chunks — near 0 means
	// the border is the bottleneck (healthy pipelining), near 1 means
	// the shards are.
	StallRatio float64
}

// lookaheadScale sizes windows as a multiple of the minimum chain
// latency: wide enough to amortize the per-window channel hand-off and
// heap maintenance, narrow enough that a few windows of buffering keep
// every worker busy (the bounded chunk channels cap memory at
// chanCap+freeCap windows of emissions per shard).
const lookaheadScale = 64

const (
	chunkChanCap = 4
	freeChanCap  = chunkChanCap + 2
)

// lookaheadWindow derives the shard window width from the minimum
// latency of an access chain: propagation delay plus the wire time of
// the smallest schedulable packet.
func lookaheadWindow(rate units.BitRate, delay units.Time, minSize int) units.Time {
	l := delay + rate.TxTime(minSize)
	if l <= 0 {
		l = units.Millisecond
	}
	w := l * lookaheadScale
	if w > 100*units.Millisecond {
		w = 100 * units.Millisecond
	}
	return w
}

// minEntrySize scans a schedule for its smallest wire size.
func minEntrySize(sched *flowbatch.Schedule) int {
	min := units.EthernetMTU
	for i := range sched.Entries {
		if s := sched.Entries[i].Size; s < min {
			min = s
		}
	}
	return min
}

// takeBuf recycles a chunk buffer from a free-list channel, or reports
// none available (the producer then grows a fresh one via append).
func takeBuf[T any](free chan []T) []T {
	select {
	case b := <-free:
		return b[:0]
	default:
		return nil
	}
}

// giveBuf returns a drained chunk buffer to the free list, dropping it
// when the list is full.
func giveBuf[T any](free chan []T, b []T) {
	if b == nil {
		return
	}
	select {
	case free <- b:
	default:
	}
}

// runFanoutPipeline is the shard-worker / sequencer / border-replay
// pipeline of every batched run (see internal/flowbatch/shard.go): the
// initialized ShardArrivals advance in lookahead windows w on one
// goroutine each, a sequencer goroutine merges and jitters their
// chunks, and the calling goroutine replays released deliveries
// through inject in exact serial order.
func runFanoutPipeline(border *sim.Simulator, sas []*flowbatch.ShardArrivals,
	seq *flowbatch.JitterSequencer, w, horizon units.Time,
	inject func(flow, entry int32)) ShardStats {

	s := len(sas)
	g := runner.NewGroup()
	arrCh := make([]chan []flowbatch.Arrival, s)
	arrFree := make([]chan []flowbatch.Arrival, s)
	for i := range arrCh {
		arrCh[i] = make(chan []flowbatch.Arrival, chunkChanCap)
		arrFree[i] = make(chan []flowbatch.Arrival, freeChanCap)
	}
	delCh := make(chan []flowbatch.Delivery, chunkChanCap)
	delFree := make(chan []flowbatch.Delivery, freeChanCap)

	for i := 0; i < s; i++ {
		i := i
		sa := sas[i]
		g.Go(i, func() {
			defer close(arrCh[i])
			for frontier := w; ; frontier += w {
				sa.AdvanceTo(frontier)
				chunk := sa.Out
				sa.Out = takeBuf(arrFree[i])
				select {
				case arrCh[i] <- chunk:
				case <-g.Quit():
					return
				}
				if sa.Done() {
					return
				}
			}
		})
	}
	g.Go(s, func() {
		defer close(delCh)
		chunks := make([][]flowbatch.Arrival, s)
		emit := func(dels []flowbatch.Delivery) bool {
			select {
			case delCh <- dels:
				return true
			case <-g.Quit():
				return false
			}
		}
		live := s
		for frontier := w; live > 0; frontier += w {
			for i := 0; i < s; i++ {
				chunks[i] = nil
				if arrCh[i] == nil {
					continue
				}
				select {
				case c, ok := <-arrCh[i]:
					if !ok {
						arrCh[i] = nil
						live--
						continue
					}
					chunks[i] = c
				case <-g.Quit():
					return
				}
			}
			if !emit(seq.Feed(chunks, frontier, takeBuf(delFree))) {
				return
			}
			for i := 0; i < s; i++ {
				giveBuf(arrFree[i], chunks[i])
			}
		}
		emit(seq.Flush(takeBuf(delFree)))
	})

	st := ShardStats{Shards: s}
	var stall time.Duration
	wall := time.Now()
	for {
		t0 := time.Now()
		dels, ok := <-delCh
		stall += time.Since(t0)
		if !ok {
			break
		}
		for _, d := range dels {
			border.RunBefore(d.At)
			border.AdvanceTo(d.At)
			inject(d.Flow, d.Entry)
		}
		st.Injected += len(dels)
		giveBuf(delFree, dels)
	}
	g.Wait()
	border.SetHorizon(horizon)
	border.Run()

	for _, sa := range sas {
		st.ShardFired += sa.Produced
	}
	if el := time.Since(wall); el > 0 {
		st.StallRatio = float64(stall) / float64(el)
	}
	return st
}

// sourceChain describes one shard-able source-side chain of an
// unbatched topology: a paced server and its dedicated access link,
// cloned onto a shard-private simulator; the chain's output crosses
// back to the named border handler at its exact delivery instants.
type sourceChain struct {
	enc     *video.Encoding
	flow    packet.FlowID
	startAt units.Time
	rate    units.BitRate // access link clone
	delay   units.Time
	sched   SchedulerSpec
	name    string         // cloned link's element name (trace hop, stats copy-back)
	next    packet.Handler // border handler the chain feeds

	hop ptrace.HopID // interned before workers spawn (Recorder is not goroutine-safe)
}

// shardAction is one border-replay step shipped from a shard worker:
// an inject (pkt != nil — hand pkt to next at at) or a trace emission
// a cloned element produced at at. One stream per shard keeps the
// shard's trace and inject actions in exact emission order.
type shardAction struct {
	at   units.Time
	pkt  *packet.Packet
	next packet.Handler
	ev   ptrace.Event
}

// shardStream collects one shard's actions in shard-sim time order.
type shardStream struct {
	sim *sim.Simulator
	out []shardAction
}

// streamTap routes a cloned element's trace events into the stream,
// stamped with the shard clock (the main recorder re-stamps with the
// border clock at replay, which the replay loop has advanced to the
// same instant).
type streamTap shardStream

// Emit implements ptrace.Tap.
func (t *streamTap) Emit(e ptrace.Event) {
	st := (*shardStream)(t)
	e.T = st.sim.Now()
	st.out = append(st.out, shardAction{at: e.T, ev: e})
}

// chainCollector terminates a cloned chain: packets cross to the
// border as inject actions.
type chainCollector struct {
	stream *shardStream
	next   packet.Handler
}

// Handle implements packet.Handler.
func (c *chainCollector) Handle(p *packet.Packet) {
	c.stream.out = append(c.stream.out, shardAction{at: c.stream.sim.Now(), pkt: p, next: c.next})
}

// shardedChainResult carries a shard worker's clones back for stats
// copy-back once the run completes.
type shardedChainResult struct {
	chain  int
	server *server.Paced
	link   *link.Link
}

// runShardedChains executes an unbatched run by cloning each source
// chain onto a shard-private simulator and replaying the merged action
// streams on the border simulator. borderSim is the shared simulator
// of the already-built network; trace is the main recorder (nil when
// untraced). Chains are dealt round-robin across min(shards,
// len(chains)) workers. Returns the pipeline stats and the per-chain
// clones for counter copy-back.
func runShardedChains(borderSim *sim.Simulator, trace *ptrace.Recorder,
	chains []sourceChain, shards int, horizon units.Time) (ShardStats, []shardedChainResult) {

	s := shards
	if s > len(chains) {
		s = len(chains)
	}
	var w units.Time
	for i := range chains {
		if trace != nil {
			chains[i].hop = trace.Hop(chains[i].name)
		}
		cw := lookaheadWindow(chains[i].rate, chains[i].delay, 64)
		if w == 0 || cw < w {
			w = cw
		}
	}

	g := runner.NewGroup()
	actCh := make([]chan []shardAction, s)
	actFree := make([]chan []shardAction, s)
	for i := range actCh {
		actCh[i] = make(chan []shardAction, chunkChanCap)
		actFree[i] = make(chan []shardAction, freeChanCap)
	}
	results := make([]shardedChainResult, len(chains))
	shardSims := make([]*sim.Simulator, s)

	for i := 0; i < s; i++ {
		i := i
		g.Go(i, func() {
			defer close(actCh[i])
			ssim := sim.New(uint64(i + 1))
			shardSims[i] = ssim
			pool := packet.NewPool()
			stream := &shardStream{sim: ssim}
			for c := i; c < len(chains); c += s {
				ch := &chains[c]
				cl := link.New(ssim, ch.rate, ch.delay, ch.sched(ssim),
					&chainCollector{stream: stream, next: ch.next})
				cl.Pool = pool
				if trace != nil {
					cl.Tap, cl.Hop = (*streamTap)(stream), ch.hop
				}
				srv := &server.Paced{Sim: ssim, Enc: ch.enc, Flow: ch.flow, Next: cl, Pool: pool}
				ssim.AtTimer(ch.startAt, sim.TimerFunc(func(units.Time) { srv.Start() }))
				results[c] = shardedChainResult{chain: c, server: srv, link: cl}
			}
			for frontier := w; ; frontier += w {
				ssim.RunBefore(frontier)
				chunk := stream.out
				stream.out = takeBuf(actFree[i])
				select {
				case actCh[i] <- chunk:
				case <-g.Quit():
					return
				}
				if _, ok := ssim.NextEventTime(); !ok {
					return
				}
				if frontier > horizon {
					return // safety cap; chain events all precede the horizon
				}
			}
		})
	}

	// Border replay: one chunk per live shard per window, S-way merged
	// by (time, shard). Cross-shard ties are measure-zero (distinct
	// flows' chain arithmetic off a shared lattice); intra-shard order
	// is the shard's own emission order, preserved verbatim.
	st := ShardStats{Shards: s}
	chunks := make([][]shardAction, s)
	pos := make([]int, s)
	var stall time.Duration
	wall := time.Now()
	live := s
	for live > 0 {
		for i := 0; i < s; i++ {
			chunks[i] = nil
			pos[i] = 0
			if actCh[i] == nil {
				continue
			}
			t0 := time.Now()
			c, ok := <-actCh[i]
			stall += time.Since(t0)
			if !ok {
				actCh[i] = nil
				live--
				continue
			}
			chunks[i] = c
		}
		for {
			best := -1
			for i := 0; i < s; i++ {
				if pos[i] >= len(chunks[i]) {
					continue
				}
				if best < 0 || chunks[i][pos[i]].at < chunks[best][pos[best]].at {
					best = i
				}
			}
			if best < 0 {
				break
			}
			a := &chunks[best][pos[best]]
			pos[best]++
			if a.at > horizon {
				if a.pkt != nil {
					a.pkt = nil // unreachable in practice; serial would never fire it
				}
				continue
			}
			borderSim.RunBefore(a.at)
			borderSim.AdvanceTo(a.at)
			if a.pkt != nil {
				a.next.Handle(a.pkt)
				st.Injected++
			} else if trace != nil {
				trace.Emit(a.ev)
			}
		}
		for i := 0; i < s; i++ {
			giveBuf(actFree[i], chunks[i])
		}
	}
	g.Wait()
	borderSim.SetHorizon(horizon)
	borderSim.Run()

	for _, ss := range shardSims {
		if ss != nil {
			st.ShardFired += ss.Fired()
		}
	}
	if el := time.Since(wall); el > 0 {
		st.StallRatio = float64(stall) / float64(el)
	}
	return st, results
}

// copyLinkStats mirrors a cloned access link's counters onto the idle
// border-side element so Network introspection reads the same totals
// a serial run leaves behind.
func copyLinkStats(dst, src *link.Link) {
	dst.Sent, dst.SentBytes, dst.BusyTime = src.Sent, src.SentBytes, src.BusyTime
}
