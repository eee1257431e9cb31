package flowbatch

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
)

// This file holds the population model every batched run shares: K
// equivalence classes, each a cached schedule fanned out as its own
// phase-offset virtual-flow set, interleaved in one global (time, flow)
// order. The interleaving is what makes a mixture exact: the jitter
// draws of every class come from the simulator's root RNG in the
// identical sequence N real per-flow jitter elements would consume,
// which K independent per-class fan-outs could not reproduce. It also
// holds the serial engine (Start), kept for one-worker mixture runs;
// see the package comment.

// TruncateSchedule returns the prefix of sched strictly before cutoff
// (emission offsets, not absolute times). The entries share sched's
// backing array, so truncation costs one header and a byte recount —
// fleet sweeps clip long schedules per grid point without recomputing
// or duplicating the cached plan. A cutoff <= 0 returns sched.
func TruncateSchedule(sched *Schedule, cutoff units.Time) *Schedule {
	if sched == nil || cutoff <= 0 {
		return sched
	}
	n := 0
	var bytes int64
	for i := range sched.Entries {
		if sched.Entries[i].At >= cutoff {
			break
		}
		bytes += int64(sched.Entries[i].Size)
		n = i + 1
	}
	if n == len(sched.Entries) {
		return sched
	}
	return &Schedule{Entries: sched.Entries[:n], Bytes: bytes}
}

// MixtureClass is one equivalence class of a BatchedMixture: a shared
// emission schedule fanned out as N virtual flows with their own
// folded chain parameters and start lattice. Flow j of the class
// starts at mixture start + Phase + j*Offset.
type MixtureClass struct {
	Sched  *Schedule
	N      int
	Phase  units.Time // class start offset from the mixture's start
	Offset units.Time // start stagger between consecutive flows of the class
	Chain  ChainSpec
}

// BatchedMixture streams K class schedules as one interleaved fan-out.
// Global virtual-flow indices are class-major: class 0 owns flows
// [0, N0), class 1 owns [N0, N0+N1), and so on; flow g carries packet
// flow id BaseFlow+g and delivers into Next[g] (or Next[0] when one
// shared next hop is given). A homogeneous batch is one class.
//
// The fan-out engine replays it through InitReplay and Inject (see
// shard.go); Start runs the serial engine instead, which matches the
// replay exactly only on a simulator nothing else shares (see the
// package comment). Either way per-flow access-link serialization is
// folded bit-exactly and jitter is drawn from the root RNG in global
// (time, flow) arrival order across all classes.
type BatchedMixture struct {
	Sim      *sim.Simulator
	Classes  []MixtureClass
	BaseFlow packet.FlowID
	Next     []packet.Handler // per-global-flow next hop; a single entry is shared
	Pool     *packet.Pool

	// Tap, when set, receives one LinkDeliver event per packet as it
	// leaves the folded chain, with the virtual flow id preserved.
	Tap ptrace.Tap
	Hop ptrace.HopID

	// Per-virtual-flow emission counters (delivery-ordered), indexed by
	// global flow.
	Sent      []int
	SentBytes []int64

	classOf      []int32 // global flow -> class index
	start        []units.Time
	drawn        []int
	delivered    []int
	busyUntil    []units.Time
	lastDelivery []units.Time
	nextArr      []units.Time
	nextDel      []units.Time
	pending      []timeRing

	arrWheel flowWheel
	delWheel flowWheel

	// delArmed is the earliest instant a delivery timer is armed for
	// (-1: none) and delTimer its handle. The delivery wheel already
	// orders every pending packet, so the simulator only ever needs one
	// timer at the wheel's minimum — arming per packet would keep
	// thousands of resident calendar events whose only effect is
	// lengthening every bucket scan in the hot loop. When a new jitter
	// draw undercuts the armed instant the stale timer is cancelled,
	// not abandoned: abandoned timers re-arm on every no-op fire and
	// accumulate without bound.
	delArmed units.Time
	delTimer sim.Handle

	arrive  sim.Timer
	deliver sim.Timer
}

// mixArriveTimer and mixDeliverTimer give the mixture two Fire methods
// without closures (the link.Link pattern).
type (
	mixArriveTimer  BatchedMixture
	mixDeliverTimer BatchedMixture
)

// Fire advances the merged arrival sequence.
func (t *mixArriveTimer) Fire(now units.Time) { (*BatchedMixture)(t).processArrivals(now) }

// Fire hands due packets to their virtual flows' next hops.
func (t *mixDeliverTimer) Fire(now units.Time) { (*BatchedMixture)(t).deliverDue(now) }

// TotalFlows sums the class populations.
func (s *BatchedMixture) TotalFlows() int {
	n := 0
	for _, c := range s.Classes {
		n += c.N
	}
	return n
}

// FlowBase reports the first global flow index of class c.
func (s *BatchedMixture) FlowBase(c int) int {
	base := 0
	for i := 0; i < c; i++ {
		base += s.Classes[i].N
	}
	return base
}

// ClassOf reports the class owning global flow g (valid after Start or
// InitReplay).
func (s *BatchedMixture) ClassOf(g int) int { return int(s.classOf[g]) }

// init lays out the per-flow state arrays in class-major flow order.
func (s *BatchedMixture) init() int {
	n := s.TotalFlows()
	if len(s.Next) != n && len(s.Next) != 1 {
		panic(fmt.Sprintf("flowbatch: %d next hops for %d mixture flows (want N or 1)", len(s.Next), n))
	}
	s.Sent = make([]int, n)
	s.SentBytes = make([]int64, n)
	s.classOf = make([]int32, n)
	s.start = make([]units.Time, n)
	now := s.Sim.Now()
	g := 0
	for ci := range s.Classes {
		c := &s.Classes[ci]
		for j := 0; j < c.N; j++ {
			s.classOf[g] = int32(ci)
			s.start[g] = now + c.Phase + units.Time(int64(j))*c.Offset
			g++
		}
	}
	return n
}

// Start schedules the interleaved fan-out.
func (s *BatchedMixture) Start() {
	if s.TotalFlows() <= 0 {
		return
	}
	n := s.init()
	s.drawn = make([]int, n)
	s.delivered = make([]int, n)
	s.busyUntil = make([]units.Time, n)
	s.lastDelivery = make([]units.Time, n)
	s.nextArr = make([]units.Time, n)
	s.nextDel = make([]units.Time, n)
	s.pending = make([]timeRing, n)
	// Size the merge wheels from the mixture's event density: total
	// scheduled packets spread over the fan-out's full span.
	var events int64
	var span units.Time
	for ci := range s.Classes {
		c := &s.Classes[ci]
		if c.N == 0 || len(c.Sched.Entries) == 0 {
			continue
		}
		events += int64(c.N) * int64(len(c.Sched.Entries))
		end := c.Phase + units.Time(int64(c.N-1))*c.Offset + c.Sched.Entries[len(c.Sched.Entries)-1].At
		if end > span {
			span = end
		}
	}
	s.arrWheel = newFlowWheel(s.nextArr, events, span)
	s.delWheel = newFlowWheel(s.nextDel, events, span)
	s.delArmed = -1
	s.arrive = (*mixArriveTimer)(s)
	s.deliver = (*mixDeliverTimer)(s)
	for g := 0; g < n; g++ {
		if len(s.Classes[s.classOf[g]].Sched.Entries) == 0 {
			continue
		}
		s.computeArrival(g)
		s.arrWheel.push(int32(g))
	}
	if s.arrWheel.len() > 0 {
		s.Sim.AtTimer(s.nextArr[s.arrWheel.min()], s.arrive)
	}
}

// computeArrival advances flow g's access-link emulation to its next
// undrawn entry of its class schedule: serialization starts at the
// emission instant or when the link frees up, whichever is later —
// exactly a dedicated link.Link's FIFO.
func (s *BatchedMixture) computeArrival(g int) {
	c := &s.Classes[s.classOf[g]]
	e := &c.Sched.Entries[s.drawn[g]]
	txStart := s.start[g] + e.At
	if s.busyUntil[g] > txStart {
		txStart = s.busyUntil[g]
	}
	done := txStart + c.Chain.AccessRate.TxTime(e.Size)
	s.busyUntil[g] = done
	s.nextArr[g] = done + c.Chain.AccessDelay
}

// processArrivals draws jitter for every packet arriving now, in
// global (time, flow) order across all classes, and schedules each
// packet's delivery at its jittered instant.
func (s *BatchedMixture) processArrivals(now units.Time) {
	for s.arrWheel.len() > 0 {
		g := s.arrWheel.min()
		a := s.nextArr[g]
		if a > now {
			break
		}
		c := &s.Classes[s.classOf[g]]
		t := a
		if c.Chain.JitterMax > 0 {
			t = a + units.Time(s.Sim.RNG().Float64()*float64(c.Chain.JitterMax))
		}
		if t < s.lastDelivery[g] {
			t = s.lastDelivery[g]
		}
		s.lastDelivery[g] = t
		if s.pending[g].Len() == 0 {
			s.nextDel[g] = t
			s.delWheel.push(g)
		}
		s.pending[g].Push(t)
		s.drawn[g]++
		if s.drawn[g] < len(c.Sched.Entries) {
			s.computeArrival(int(g))
			s.arrWheel.fixMin()
		} else {
			s.arrWheel.pop()
		}
	}
	s.armDeliver()
	if s.arrWheel.len() > 0 {
		s.Sim.AtTimer(s.nextArr[s.arrWheel.min()], s.arrive)
	}
}

// armDeliver keeps exactly one delivery timer armed at the wheel's
// minimum, cancelling the previous one when the minimum moved earlier
// (the handle of a timer that already fired is stale, so Cancel is a
// no-op in the common re-arm-after-fire case).
func (s *BatchedMixture) armDeliver() {
	if s.delWheel.len() == 0 {
		return
	}
	if t := s.nextDel[s.delWheel.min()]; s.delArmed < 0 || t < s.delArmed {
		s.delTimer.Cancel()
		s.delTimer = s.Sim.AtTimer(t, s.deliver)
		s.delArmed = t
	}
}

// deliverDue materializes and forwards every packet whose jittered
// delivery instant is now, in (time, flow) order.
func (s *BatchedMixture) deliverDue(now units.Time) {
	s.delArmed = -1
	for s.delWheel.len() > 0 {
		g := s.delWheel.min()
		if s.nextDel[g] > now {
			break
		}
		s.pending[g].Pop()
		k := s.delivered[g]
		s.delivered[g]++
		s.emit(g, int32(k))
		if s.pending[g].Len() > 0 {
			s.nextDel[g] = s.pending[g].Peek()
			s.delWheel.fixMin()
		} else {
			s.delWheel.pop()
		}
	}
	s.armDeliver()
}

// emit materializes entry k of global flow g and forwards it — shared
// by the serial delivery loop and the sharded border replay.
func (s *BatchedMixture) emit(g, k int32) {
	c := &s.Classes[s.classOf[g]]
	e := &c.Sched.Entries[k]
	p := s.Pool.Get()
	p.ID = traffic.NewPacketID()
	p.Flow = s.BaseFlow + packet.FlowID(g)
	p.Proto = packet.UDP
	p.Size = e.Size
	p.FrameSeq, p.FragIndex, p.FragCount = int(e.FrameSeq), int(e.FragIndex), int(e.FragCount)
	p.SentAt = s.start[g] + e.At
	s.Sent[g]++
	s.SentBytes[g] += int64(e.Size)
	if s.Tap != nil {
		s.Tap.Emit(ptrace.Event{
			Kind: ptrace.LinkDeliver, Hop: s.Hop, Flow: p.Flow, PktID: p.ID,
			Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: e.FrameSeq,
		})
	}
	next := s.Next[0]
	if len(s.Next) > 1 {
		next = s.Next[g]
	}
	next.Handle(p)
}

// InitReplay prepares the mixture for sharded border replay: flow
// layout and counters as Start would build them, but no timers — an
// external sequencer replays the delivery order through Inject.
func (s *BatchedMixture) InitReplay() { s.init() }

// StartOf reports global flow g's start time (valid after Start or
// InitReplay).
func (s *BatchedMixture) StartOf(g int) units.Time { return s.start[g] }

// Inject materializes entry k of global flow g at the current border
// clock and forwards it to the flow's next hop — one delivery the
// sequencer released. The caller must have advanced the border
// simulator to the delivery instant so packet ids, taps and downstream
// elements observe the serial timeline.
func (s *BatchedMixture) Inject(g, k int32) { s.emit(g, k) }

// TotalSent sums the per-virtual-flow emission counters.
func (s *BatchedMixture) TotalSent() int {
	total := 0
	for _, n := range s.Sent {
		total += n
	}
	return total
}
