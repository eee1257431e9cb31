// Package flowbatch batches identical paced flows: one representative
// flow's emission schedule, computed once per equivalence class (same
// encoding, message size, pacing spread) and cached, fans out as N
// phase-offset virtual flows. Each virtual flow keeps its own flow id,
// its own policer, its own client and its own per-flow statistics —
// downstream elements cannot tell a batched source from N real
// servers — but the source-side work (fragmenting every frame,
// firing every frame event, running a private access link and jitter
// element per flow) is paid once instead of N times.
//
// # Exactness
//
// BatchedPaced folds the per-flow access link and campus jitter of the
// multi-flow topology into the source and reproduces them exactly:
//
//   - the access link is emulated by per-flow serialization state
//     (txStart = max(emission, busyUntil)), which is bit-identical to a
//     dedicated link.Link that only this flow crosses;
//   - the jitter element's uniform draw is taken from the simulator's
//     root RNG in global arrival order across all virtual flows — the
//     same stream positions the N real link.Jitter elements would have
//     consumed — and the order-preserving clamp is applied per flow.
//
// Batching is therefore exact (byte-identical figures, delivered and
// dropped counts) when the batched flows' jitter elements are the only
// consumers of the simulator's root RNG stream during the run (forks
// taken at build time do not matter) and no two same-instant events
// race across virtual flows. The multi-flow topology satisfies both;
// internal/experiment's differential harness pins the equivalence at
// N ≤ 8 on the nflow grid and through N = 32 on the wide
// configuration (empirically exact through N = 96). At larger N the
// phase-offset lattice eventually realizes an exact same-instant
// cross-flow coincidence; the fan-out resolves it in deterministic
// (time, flow) order where a real event queue resolves it in
// scheduling-sequence order, so past that point a batched run is a
// statistically equivalent sample of the same chaotic saturated
// system rather than a bit-equal one. N = 128 is the first wide grid
// point where that divergence is realized under the default seed —
// TestBatchedWideTieDivergence in internal/experiment pins both
// sides of the boundary as a regression witness. Batching is approximate for
// topologies where batched flows share a pre-policer queue with other
// traffic, and unsupported for random (Poisson, on-off) sources,
// whose per-flow RNG forks cannot be reproduced by one shared stream.
//
// # Mixtures
//
// BatchedMixture generalizes the fan-out from one homogeneous
// population to K equivalence classes (MixtureClass): each class
// brings its own cached schedule, access chain, phase and stagger,
// and fans out as its own set of phase-offset virtual flows, with
// global flow indices laid out class-major. One arrival wheel and one
// delivery wheel (flowWheel, a calendar of time buckets over flow
// indices — O(1) amortized where a binary heap pays a cache-hostile
// O(log N) sift) interleave the classes in exact global (time, flow)
// order, so the jitter stream is drawn at exactly the positions K
// separate per-flow populations would consume and the exactness
// contract above — and both the batcheq and shardeq differential
// harnesses — extend to mixtures unchanged. A single class with zero
// phase emits packet-for-packet what BatchedPaced does when nothing
// else shares its simulator (the isolated flowbatch test), but it is
// not a drop-in replacement inside a larger topology: BatchedPaced
// arms one delivery event per packet while the mixture keeps one
// re-armed delivery timer, so their events carry different sequence
// numbers and same-instant ties with other components' events (border
// policers, links) can resolve in a different order. Folding a
// homogeneous batch into a 1-class mixture therefore has to align the
// delivery-timer arming first.
// TruncateSchedule caps a class's schedule to a clip prefix for
// fleet-scale sweeps. Sharded execution reuses the shift-invariance
// argument per class: ShardArrivals carries per-flow base-sequence
// indirection (Bases) and JitterSequencer per-flow jitter bounds
// (JitterMaxOf), so one border replay serves heterogeneous shards.
package flowbatch

import (
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// Entry is one packet of the representative flow's emission plan.
type Entry struct {
	At        units.Time // emission offset from the flow's start
	Size      int        // bytes on the wire (payload + UDP/IP header)
	FrameSeq  int32
	FragIndex int32
	FragCount int32
}

// Schedule is the complete emission plan of one representative paced
// flow: every fragment server.Paced would send, with the same sizes
// and the same integer pacing arithmetic, precomputed so N virtual
// flows can share it.
type Schedule struct {
	Entries []Entry
	Bytes   int64 // total wire bytes per flow
}

// PacedSchedule computes the emission plan of a server.Paced streaming
// enc: frame i starts at i*FrameInterval, its fragments spread across
// paceSpread of the interval with the exact integer arithmetic the
// server uses. msgSize <= 0 means one MTU's worth of payload;
// paceSpread <= 0 means the server's 0.95 default. Spreads above 1
// panic, as they do in server.Paced.Start.
func PacedSchedule(enc *video.Encoding, msgSize int, paceSpread float64) *Schedule {
	if msgSize <= 0 {
		msgSize = server.MaxUDPPayload
	}
	if paceSpread <= 0 {
		paceSpread = 0.95
	}
	if paceSpread > 1 {
		panic("flowbatch: paceSpread > 1 would overlap adjacent frames' sends")
	}
	interval := video.FrameInterval()
	spread := units.Time(float64(interval) * paceSpread)
	sched := &Schedule{}
	for i := range enc.Frames {
		size := enc.Frames[i].Size
		frags := (size + msgSize - 1) / msgSize
		if frags == 0 {
			frags = 1
		}
		frameAt := units.Time(int64(i)) * interval
		for j := 0; j < frags; j++ {
			payload := msgSize
			if j == frags-1 {
				payload = size - (frags-1)*msgSize
			}
			var at units.Time
			if frags > 1 {
				at = units.Time(int64(spread) * int64(j) / int64(frags))
			}
			wire := payload + server.UDPHeader
			sched.Entries = append(sched.Entries, Entry{
				At: frameAt + at, Size: wire,
				FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(frags),
			})
			sched.Bytes += int64(wire)
		}
	}
	return sched
}

// schedCache memoizes default-parameter schedules per encoding, the
// same sharing discipline video.CachedCBR applies to encodings: every
// grid point of a sweep reuses one plan.
var schedCache sync.Map // *video.Encoding -> *Schedule

// CachedPacedSchedule returns the shared default-parameter schedule
// for enc, computing it on first use.
func CachedPacedSchedule(enc *video.Encoding) *Schedule {
	if s, ok := schedCache.Load(enc); ok {
		return s.(*Schedule)
	}
	s := PacedSchedule(enc, 0, 0)
	actual, _ := schedCache.LoadOrStore(enc, s)
	return actual.(*Schedule)
}

// ChainSpec is the deterministic pre-policer path folded into a
// BatchedPaced source: a dedicated access link (serialization at
// AccessRate plus AccessDelay propagation) followed by an
// order-preserving uniform jitter element bounded by JitterMax. A zero
// AccessRate means an infinitely fast access link; a zero JitterMax
// draws nothing from the RNG, exactly like link.Jitter.
type ChainSpec struct {
	AccessRate  units.BitRate
	AccessDelay units.Time
	JitterMax   units.Time
}

// flowHeap is a binary min-heap of virtual-flow indices ordered by an
// external key slice, ties broken by index so same-instant fan-out is
// deterministic.
type flowHeap struct {
	idx []int32
	key []units.Time
}

func (h *flowHeap) len() int   { return len(h.idx) }
func (h *flowHeap) min() int32 { return h.idx[0] }

func (h *flowHeap) less(a, b int32) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return a < b
}

func (h *flowHeap) push(i int32) {
	h.idx = append(h.idx, i)
	c := len(h.idx) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.less(h.idx[c], h.idx[p]) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

// fixMin restores heap order after the root's key changed.
func (h *flowHeap) fixMin() { h.siftDown(0) }

func (h *flowHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if len(h.idx) > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *flowHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(h.idx[l], h.idx[s]) {
			s = l
		}
		if r < n && h.less(h.idx[r], h.idx[s]) {
			s = r
		}
		if s == i {
			return
		}
		h.idx[i], h.idx[s] = h.idx[s], h.idx[i]
		i = s
	}
}

// timeRing is a FIFO of timestamps on a compacting slice — the
// packet.Ring pattern, holding the drawn-but-undelivered jitter
// delivery times of one virtual flow. Steady-state push/pop never
// allocates.
type timeRing struct {
	items []units.Time
	head  int
}

func (r *timeRing) Len() int { return len(r.items) - r.head }

func (r *timeRing) Push(t units.Time) {
	if r.head == len(r.items) {
		r.items = r.items[:0]
		r.head = 0
	}
	r.items = append(r.items, t)
}

func (r *timeRing) Peek() units.Time { return r.items[r.head] }

func (r *timeRing) Pop() units.Time {
	t := r.items[r.head]
	r.head++
	if r.head == len(r.items) {
		r.items = r.items[:0]
		r.head = 0
	} else if r.head >= 32 && r.head*2 >= len(r.items) {
		// Compact the consumed prefix once it dominates, so a ring that
		// never fully drains still keeps memory proportional to
		// occupancy, not to total packets pushed.
		n := copy(r.items, r.items[r.head:])
		r.items = r.items[:n]
		r.head = 0
	}
	return t
}

// BatchedPaced streams one shared Schedule as N virtual paced flows.
// Flow i starts at Start time + i*Offset, carries flow id BaseFlow+i,
// and delivers into Next[i] (or Next[0] when one shared next hop is
// given). The folded ChainSpec stands in for the per-flow access link
// and jitter elements; see the package comment for when the fold is
// exact.
//
// Two pre-bound Timers drive the whole fan-out: an arrival timer that
// walks the merged (per-flow serialized) arrival sequence, drawing
// each packet's jitter at its arrival instant, and a delivery timer
// that hands materialized packets to the per-flow next hops at their
// jittered times. Steady-state emission allocates nothing: packets
// come from Pool, timestamps ride preallocated heaps and rings, and
// the simulator recycles both timer events.
type BatchedPaced struct {
	Sim      *sim.Simulator
	Sched    *Schedule
	N        int
	BaseFlow packet.FlowID
	Offset   units.Time // start stagger between consecutive virtual flows
	Chain    ChainSpec
	Next     []packet.Handler // per-virtual-flow next hop; a single entry is shared
	Pool     *packet.Pool

	// Tap, when set, receives one LinkDeliver event per packet as it
	// leaves the folded chain — the observable the real chain's last
	// element would have emitted, with the virtual flow id preserved.
	Tap ptrace.Tap
	Hop ptrace.HopID

	// Per-virtual-flow emission counters (delivery-ordered).
	Sent      []int
	SentBytes []int64

	start        []units.Time
	drawn        []int // entries whose jitter has been drawn
	delivered    []int // entries handed to Next
	busyUntil    []units.Time
	lastDelivery []units.Time
	nextArr      []units.Time
	nextDel      []units.Time
	pending      []timeRing

	arrHeap flowHeap
	delHeap flowHeap

	arrive  sim.Timer
	deliver sim.Timer
}

// arriveTimer and deliverTimer give the source two Fire methods
// without per-schedule closures (the link.Link pattern).
type (
	arriveTimer  BatchedPaced
	deliverTimer BatchedPaced
)

// Fire advances the merged arrival sequence.
func (t *arriveTimer) Fire(now units.Time) { (*BatchedPaced)(t).processArrivals(now) }

// Fire hands due packets to their virtual flows' next hops.
func (t *deliverTimer) Fire(now units.Time) { (*BatchedPaced)(t).deliverDue(now) }

// Start schedules the fan-out. Flow 0's first packet follows the same
// chain timing a freshly started server.Paced would produce.
func (s *BatchedPaced) Start() {
	if s.N <= 0 || s.Sched == nil || len(s.Sched.Entries) == 0 {
		return
	}
	if len(s.Next) != s.N && len(s.Next) != 1 {
		panic(fmt.Sprintf("flowbatch: %d next hops for %d virtual flows (want N or 1)", len(s.Next), s.N))
	}
	n := s.N
	s.Sent = make([]int, n)
	s.SentBytes = make([]int64, n)
	s.start = make([]units.Time, n)
	s.drawn = make([]int, n)
	s.delivered = make([]int, n)
	s.busyUntil = make([]units.Time, n)
	s.lastDelivery = make([]units.Time, n)
	s.nextArr = make([]units.Time, n)
	s.nextDel = make([]units.Time, n)
	s.pending = make([]timeRing, n)
	s.arrHeap = flowHeap{idx: make([]int32, 0, n), key: s.nextArr}
	s.delHeap = flowHeap{idx: make([]int32, 0, n), key: s.nextDel}
	s.arrive = (*arriveTimer)(s)
	s.deliver = (*deliverTimer)(s)
	now := s.Sim.Now()
	for i := 0; i < n; i++ {
		s.start[i] = now + units.Time(int64(i))*s.Offset
		s.computeArrival(i)
		s.arrHeap.push(int32(i))
	}
	s.Sim.AtTimer(s.nextArr[s.arrHeap.min()], s.arrive)
}

// computeArrival advances flow i's access-link emulation to its next
// undrawn entry: serialization starts at the emission instant or when
// the link frees up, whichever is later — exactly a dedicated
// link.Link's FIFO.
func (s *BatchedPaced) computeArrival(i int) {
	e := &s.Sched.Entries[s.drawn[i]]
	txStart := s.start[i] + e.At
	if s.busyUntil[i] > txStart {
		txStart = s.busyUntil[i]
	}
	done := txStart + s.Chain.AccessRate.TxTime(e.Size)
	s.busyUntil[i] = done
	s.nextArr[i] = done + s.Chain.AccessDelay
}

// processArrivals draws jitter for every virtual-flow packet arriving
// now, in (time, flow) order — the same root-RNG consumption order N
// real jitter elements would produce — and schedules each packet's
// delivery at its jittered instant.
func (s *BatchedPaced) processArrivals(now units.Time) {
	for s.arrHeap.len() > 0 {
		i := s.arrHeap.min()
		a := s.nextArr[i]
		if a > now {
			break
		}
		// Uniform draw plus order-preserving clamp: link.Jitter.Handle,
		// with the element's state held per virtual flow.
		t := a
		if s.Chain.JitterMax > 0 {
			t = a + units.Time(s.Sim.RNG().Float64()*float64(s.Chain.JitterMax))
		}
		if t < s.lastDelivery[i] {
			t = s.lastDelivery[i]
		}
		s.lastDelivery[i] = t
		if s.pending[i].Len() == 0 {
			s.nextDel[i] = t
			s.delHeap.push(i)
		}
		s.pending[i].Push(t)
		s.Sim.AtTimer(t, s.deliver)
		s.drawn[i]++
		if s.drawn[i] < len(s.Sched.Entries) {
			s.computeArrival(int(i))
			s.arrHeap.fixMin()
		} else {
			s.arrHeap.pop()
		}
	}
	if s.arrHeap.len() > 0 {
		s.Sim.AtTimer(s.nextArr[s.arrHeap.min()], s.arrive)
	}
}

// deliverDue materializes and forwards every packet whose jittered
// delivery instant is now, in (time, flow) order.
func (s *BatchedPaced) deliverDue(now units.Time) {
	for s.delHeap.len() > 0 {
		i := s.delHeap.min()
		if s.nextDel[i] > now {
			break
		}
		s.pending[i].Pop()
		k := s.delivered[i]
		s.delivered[i]++
		e := &s.Sched.Entries[k]
		p := s.Pool.Get()
		p.ID = traffic.NewPacketID()
		p.Flow = s.BaseFlow + packet.FlowID(i)
		p.Proto = packet.UDP
		p.Size = e.Size
		p.FrameSeq, p.FragIndex, p.FragCount = int(e.FrameSeq), int(e.FragIndex), int(e.FragCount)
		p.SentAt = s.start[i] + e.At
		s.Sent[i]++
		s.SentBytes[i] += int64(e.Size)
		if s.Tap != nil {
			s.Tap.Emit(ptrace.Event{
				Kind: ptrace.LinkDeliver, Hop: s.Hop, Flow: p.Flow, PktID: p.ID,
				Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: e.FrameSeq,
			})
		}
		next := s.Next[0]
		if len(s.Next) > 1 {
			next = s.Next[i]
		}
		next.Handle(p)
		if s.pending[i].Len() > 0 {
			s.nextDel[i] = s.pending[i].Peek()
			s.delHeap.fixMin()
		} else {
			s.delHeap.pop()
		}
	}
}

// TotalSent sums the per-virtual-flow emission counters.
func (s *BatchedPaced) TotalSent() int {
	total := 0
	for _, n := range s.Sent {
		total += n
	}
	return total
}

// BatchedCBR fans one constant-bit-rate emission pattern out as N
// phase-offset virtual flows carrying ids BaseFlow..BaseFlow+N-1, all
// feeding Next directly — the batched form of N identical traffic.CBR
// declarations. With Phase 0 it is packet-for-packet identical to N
// CBR sources started in flow-id order (same tick, same emission
// order, same id counter); a non-zero Phase staggers the virtual
// flows' starts, which plain CBR sources cannot express.
type BatchedCBR struct {
	Sim      *sim.Simulator
	Rate     units.BitRate
	Size     int
	BaseFlow packet.FlowID
	DSCP     packet.DSCP
	N        int
	Phase    units.Time // start stagger between consecutive virtual flows
	Next     packet.Handler
	Pool     *packet.Pool
	Until    units.Time // stop time; 0 = run to horizon

	Sent int

	nextAt []units.Time
	heap   flowHeap
	timer  sim.Timer
}

// batchedCBRTimer is the pointer-conversion Timer of a BatchedCBR.
type batchedCBRTimer BatchedCBR

// Fire emits every virtual flow due now.
func (t *batchedCBRTimer) Fire(now units.Time) { (*BatchedCBR)(t).emitDue(now) }

// Start schedules the first emissions.
func (c *BatchedCBR) Start() {
	if c.N <= 0 {
		return
	}
	if c.Size <= 0 {
		c.Size = units.EthernetMTU
	}
	c.nextAt = make([]units.Time, c.N)
	c.heap = flowHeap{idx: make([]int32, 0, c.N), key: c.nextAt}
	c.timer = (*batchedCBRTimer)(c)
	now := c.Sim.Now()
	for i := 0; i < c.N; i++ {
		c.nextAt[i] = now + units.Time(int64(i))*c.Phase
		c.heap.push(int32(i))
	}
	c.Sim.AtTimer(c.nextAt[c.heap.min()], c.timer)
}

func (c *BatchedCBR) emitDue(now units.Time) {
	step := c.Rate.TxTime(c.Size)
	for c.heap.len() > 0 {
		i := c.heap.min()
		if c.nextAt[i] > now {
			break
		}
		if c.Until > 0 && now >= c.Until {
			c.heap.pop()
			continue
		}
		p := c.Pool.Get()
		p.ID, p.Flow, p.Size = traffic.NewPacketID(), c.BaseFlow+packet.FlowID(i), c.Size
		p.DSCP, p.SentAt, p.FrameSeq = c.DSCP, now, -1
		c.Sent++
		c.Next.Handle(p)
		c.nextAt[i] = now + step
		c.heap.fixMin()
	}
	if c.heap.len() > 0 {
		c.Sim.AtTimer(c.nextAt[c.heap.min()], c.timer)
	}
}
