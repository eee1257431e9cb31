package flowbatch

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// emission is what the comparison tests record at a chain's exit.
type emission struct {
	at       units.Time
	flow     packet.FlowID
	size     int
	frameSeq int
	sentAt   units.Time
}

// recorder is a terminal handler capturing every packet's identity.
type recorder struct {
	sim  *sim.Simulator
	pool *packet.Pool
	got  []emission
}

func (r *recorder) Handle(p *packet.Packet) {
	r.got = append(r.got, emission{r.sim.Now(), p.Flow, p.Size, p.FrameSeq, p.SentAt})
	r.pool.Put(p)
}

// TestPacedScheduleMatchesServer pins the shared schedule to what a
// real server.Paced emits: same instants, sizes and frame metadata.
func TestPacedScheduleMatchesServer(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	sched := PacedSchedule(enc, 0, 0)
	if len(sched.Entries) == 0 {
		t.Fatal("empty schedule")
	}

	s := sim.New(1)
	pool := packet.NewPool()
	rec := &recorder{sim: s, pool: pool}
	srv := &server.Paced{Sim: s, Enc: enc, Flow: 7, Next: rec, Pool: pool}
	srv.Start()
	s.Run()

	if len(rec.got) != len(sched.Entries) {
		t.Fatalf("server sent %d packets, schedule has %d entries", len(rec.got), len(sched.Entries))
	}
	var bytes int64
	for i, e := range sched.Entries {
		g := rec.got[i]
		if g.at != e.At || g.size != e.Size || g.frameSeq != int(e.FrameSeq) {
			t.Fatalf("entry %d: schedule (at=%v size=%d frame=%d) vs server (at=%v size=%d frame=%d)",
				i, e.At, e.Size, e.FrameSeq, g.at, g.size, g.frameSeq)
		}
		bytes += int64(e.Size)
	}
	if bytes != sched.Bytes || bytes != srv.SentBytes {
		t.Errorf("bytes: schedule sum %d, Schedule.Bytes %d, server %d", bytes, sched.Bytes, srv.SentBytes)
	}
}

// TestCachedPacedScheduleShares pins the one-plan-per-encoding
// sharing discipline.
func TestCachedPacedScheduleShares(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	if CachedPacedSchedule(enc) != CachedPacedSchedule(enc) {
		t.Error("cached schedule not shared")
	}
}

// buildChain hand-wires the real access-link + jitter chain a batched
// source folds: link(rate, delay, FIFO) → jitter(max) → next.
func buildChain(s *sim.Simulator, pool *packet.Pool, spec ChainSpec, next packet.Handler) packet.Handler {
	j := &link.Jitter{Sim: s, Max: spec.JitterMax, Next: next}
	l := link.New(s, spec.AccessRate, spec.AccessDelay, queue.NewSingleFIFO(0), j)
	l.Pool = pool
	return l
}

// TestFanoutFoldsChainExactly compares the fan-out pipeline, at 1, 2
// and 3 workers, against per-flow server-style emissions through real
// link and jitter elements, with a synthetic schedule that includes
// back-to-back same-instant entries — forcing the access link to
// queue, so the serialization emulation of the base walk is exercised,
// not just the idle path. All simulations share a seed, so the jitter
// draws must line up in global arrival order for the outputs to
// match.
func TestFanoutFoldsChainExactly(t *testing.T) {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(42))
	var at units.Time
	for i := 0; i < 300; i++ {
		// Clumped arrivals: several entries at the same instant, then a
		// short gap — far denser than the access link drains.
		burst := 1 + rng.Intn(3)
		for j := 0; j < burst; j++ {
			size := 200 + rng.Intn(1300)
			sched.Entries = append(sched.Entries, Entry{
				At: at, Size: size, FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(burst),
			})
			sched.Bytes += int64(size)
		}
		at += units.Time(rng.Intn(400_000)) // up to 400 µs, ns granular
	}
	// Off-round-number parameters keep cross-flow arrival instants off
	// a shared lattice: exact same-tick ties across flows are where
	// batched fan-out order (flow index) and a real event queue's
	// scheduling order could legitimately differ, and the fold's
	// exactness contract excludes them (see the package comment).
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 3
	offset := units.Time(1_712_345) // ~1.7 ms

	// Reference: n per-flow chains of real elements, fed by scheduled
	// emissions in the same merged (time, flow) order the batched
	// source produces.
	s1 := sim.New(99)
	pool1 := packet.NewPool()
	ref := &recorder{sim: s1, pool: pool1}
	chains := make([]packet.Handler, n)
	for i := 0; i < n; i++ {
		chains[i] = buildChain(s1, pool1, chain, ref)
	}
	type em struct {
		at   units.Time
		flow int
		e    Entry
	}
	var ems []em
	for i := 0; i < n; i++ {
		for _, e := range sched.Entries {
			ems = append(ems, em{units.Time(int64(i))*offset + e.At, i, e})
		}
	}
	sort.SliceStable(ems, func(a, b int) bool {
		if ems[a].at != ems[b].at {
			return ems[a].at < ems[b].at
		}
		return ems[a].flow < ems[b].flow
	})
	for _, m := range ems {
		m := m
		s1.AtTimer(m.at, sim.TimerFunc(func(units.Time) {
			p := pool1.Get()
			p.Flow = 100 + packet.FlowID(m.flow)
			p.Size = m.e.Size
			p.FrameSeq = int(m.e.FrameSeq)
			p.SentAt = s1.Now()
			chains[m.flow].Handle(p)
		}))
	}
	s1.Run()

	// Batched: one-class fan-out, folded chain, same seed.
	for workers := 1; workers <= 3; workers++ {
		got, src := runSharded(sched, chain, n, workers, offset, 0, 5*units.Millisecond)
		if len(got.got) != len(ref.got) {
			t.Fatalf("workers=%d: batched delivered %d packets, reference %d", workers, len(got.got), len(ref.got))
		}
		for i := range ref.got {
			w, g := ref.got[i], got.got[i]
			if w.at != g.at || w.flow != g.flow || w.size != g.size ||
				w.frameSeq != g.frameSeq || w.sentAt != g.sentAt {
				t.Fatalf("workers=%d: packet %d diverged:\nreference %+v\nbatched   %+v", workers, i, w, g)
			}
		}
		if src.TotalSent() != n*len(sched.Entries) {
			t.Errorf("workers=%d: TotalSent = %d, want %d", workers, src.TotalSent(), n*len(sched.Entries))
		}
	}
}

// runMixtureAtWidth runs the clumped-schedule fixture on the serial
// mixture engine, on a calendar pinned to the given bucket width
// (0 = adaptive), and returns the delivered stream.
func runMixtureAtWidth(sched *Schedule, width units.Time) (*sim.Simulator, []emission) {
	s := sim.NewWithBucketWidth(77, width)
	pool := packet.NewPool()
	got := &recorder{sim: s, pool: pool}
	src := oneClass(s, sched, ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}, 4, 1_712_345, got, pool)
	src.Start()
	s.Run()
	return s, got.got
}

// TestMixtureWidthInvariant pins calendar geometry out of the results:
// the same serial mixture simulation run under the adaptive default
// and under pinned widths far finer and far coarser than the traffic
// spacing must deliver byte-identical packet streams — same instants,
// flows, sizes and jitter draws (seeded RNG consumed in the same
// event order). Bucket width is a performance knob only.
func TestMixtureWidthInvariant(t *testing.T) {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(9))
	var at units.Time
	for i := 0; i < 800; i++ {
		burst := 1 + rng.Intn(3)
		for j := 0; j < burst; j++ {
			size := 200 + rng.Intn(1300)
			sched.Entries = append(sched.Entries, Entry{
				At: at, Size: size, FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(burst),
			})
			sched.Bytes += int64(size)
		}
		at += units.Time(rng.Intn(400_000))
	}

	s, adaptive := runMixtureAtWidth(sched, 0)
	if len(adaptive) == 0 {
		t.Fatal("adaptive run delivered nothing")
	}
	if qs := s.QueueStats(); qs.Rebases == 0 {
		t.Fatalf("adaptive run never rebased — fixture too short to exercise the policy: %+v", qs)
	}
	for _, width := range []units.Time{units.Microsecond, 4 * units.Millisecond} {
		_, pinned := runMixtureAtWidth(sched, width)
		if len(pinned) != len(adaptive) {
			t.Fatalf("width %v delivered %d packets, adaptive %d", width, len(pinned), len(adaptive))
		}
		for i := range adaptive {
			if adaptive[i] != pinned[i] {
				t.Fatalf("width %v: packet %d diverged:\nadaptive %+v\npinned   %+v",
					width, i, adaptive[i], pinned[i])
			}
		}
	}
}

// TestBatchedCBREquivalence pins BatchedCBR with Phase 0 to N plain
// CBR sources started in flow-id order: same ticks, same per-flow
// packets, same Until cutoff.
func TestBatchedCBREquivalence(t *testing.T) {
	const n = 4
	rate := 2 * units.Mbps
	until := 500 * units.Millisecond

	s1 := sim.New(5)
	pool1 := packet.NewPool()
	ref := &recorder{sim: s1, pool: pool1}
	for i := 0; i < n; i++ {
		src := &traffic.CBR{Sim: s1, Rate: rate, Size: 1200, Flow: 50 + packet.FlowID(i),
			DSCP: packet.AF12, Next: ref, Pool: pool1, Until: until}
		src.Start()
	}
	s1.Run()

	s2 := sim.New(5)
	pool2 := packet.NewPool()
	got := &recorder{sim: s2, pool: pool2}
	src := &BatchedCBR{Sim: s2, Rate: rate, Size: 1200, BaseFlow: 50, DSCP: packet.AF12,
		N: n, Next: got, Pool: pool2, Until: until}
	src.Start()
	s2.Run()

	if len(got.got) != len(ref.got) || len(got.got) == 0 {
		t.Fatalf("batched emitted %d packets, reference %d", len(got.got), len(ref.got))
	}
	for i := range ref.got {
		if ref.got[i] != got.got[i] {
			t.Fatalf("packet %d diverged:\nreference %+v\nbatched   %+v", i, ref.got[i], got.got[i])
		}
	}
	if src.Sent != len(got.got) {
		t.Errorf("Sent = %d, want %d", src.Sent, len(got.got))
	}
}

// TestFlowHeapOrdering property-tests the index heap: pops come out in
// (key, index) order under interleaved pushes and key advances.
func TestFlowHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]units.Time, 64)
	h := flowHeap{idx: make([]int32, 0, len(keys)), key: keys}
	for i := range keys {
		keys[i] = units.Time(rng.Intn(1000))
		h.push(int32(i))
	}
	var prevKey units.Time = -1
	var prevIdx int32 = -1
	for h.len() > 0 {
		i := h.min()
		if keys[i] < prevKey || (keys[i] == prevKey && i < prevIdx) {
			t.Fatalf("heap order violated: (%d,%d) after (%d,%d)", keys[i], i, prevKey, prevIdx)
		}
		prevKey, prevIdx = keys[i], i
		if rng.Intn(3) == 0 {
			// Advance the root's key in place, as the arrival walk does.
			keys[i] += units.Time(rng.Intn(500))
			h.fixMin()
			prevKey, prevIdx = -1, -1
			continue
		}
		h.pop()
	}
}

// TestTimeRingFIFO pins the drawn-ahead ring's FIFO behaviour and its
// slot reuse (no growth once drained).
func TestTimeRingFIFO(t *testing.T) {
	var r timeRing
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.Push(units.Time(round*10 + i))
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != units.Time(round*10+i) {
				t.Fatalf("round %d pop %d = %v", round, i, got)
			}
		}
	}
	if r.Len() != 0 {
		t.Errorf("ring not drained: %d", r.Len())
	}
	if cap(r.items) > 8 {
		t.Errorf("ring grew to %d slots for occupancy 3", cap(r.items))
	}

	// Sustained backlog: the ring never fully drains, so the consumed
	// prefix must be compacted away — memory stays proportional to
	// occupancy, not to total pushes.
	var b timeRing
	next, want := 0, 0
	for i := 0; i < 3; i++ {
		b.Push(units.Time(next))
		next++
	}
	for i := 0; i < 10000; i++ {
		b.Push(units.Time(next))
		next++
		if got := b.Pop(); got != units.Time(want) {
			t.Fatalf("backlogged pop %d = %v, want %v", i, got, want)
		}
		want++
	}
	if b.Len() != 3 {
		t.Errorf("backlogged ring length %d, want 3", b.Len())
	}
	if cap(b.items) > 128 {
		t.Errorf("backlogged ring grew to %d slots for occupancy 3", cap(b.items))
	}
}
