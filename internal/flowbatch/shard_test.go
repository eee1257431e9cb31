package flowbatch

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// clumpedSchedule builds the same kind of adversarial plan the fold
// test uses: same-instant bursts that force access-link queuing.
func clumpedSchedule(seed int64, frames int) *Schedule {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(seed))
	var at units.Time
	for i := 0; i < frames; i++ {
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
	return sched
}

// oneClass wraps sched as a one-class mixture — a homogeneous batch of
// n flows staggered by offset — delivering every flow into next.
func oneClass(s *sim.Simulator, sched *Schedule, chain ChainSpec, n int, offset units.Time,
	next packet.Handler, pool *packet.Pool) *BatchedMixture {
	return &BatchedMixture{Sim: s, Classes: []MixtureClass{{Sched: sched, N: n, Offset: offset, Chain: chain}},
		BaseFlow: 100, Next: []packet.Handler{next}, Pool: pool}
}

// runSerial drives an isolated one-class serial BatchedMixture to the
// horizon (0 = drain) and returns its emissions plus the source. With
// nothing else on its simulator the serial engine has no cross-component
// ties to break, so it is an exact reference for the pipeline.
func runSerial(sched *Schedule, chain ChainSpec, n int, offset, horizon units.Time) (*recorder, *BatchedMixture) {
	s := sim.New(99)
	pool := packet.NewPool()
	rec := &recorder{sim: s, pool: pool}
	src := oneClass(s, sched, chain, n, offset, rec, pool)
	src.Start()
	if horizon > 0 {
		s.SetHorizon(horizon)
	}
	s.Run()
	return rec, src
}

// replay drives the fan-out pipeline over mix inline, on mix's own
// simulator as the border: per-shard arrival walks in lookahead
// windows, central jitter sequencing, border replay.
func replay(mix *BatchedMixture, shards int, horizon, window units.Time) {
	border := mix.Sim
	mix.InitReplay()
	n := mix.TotalFlows()
	bases := make([][]units.Time, len(mix.Classes))
	for ci, c := range mix.Classes {
		bases[ci] = BaseArrivals(c.Sched, c.Chain)
	}
	sas := make([]*ShardArrivals, shards)
	for s := 0; s < shards; s++ {
		sa := &ShardArrivals{Horizon: horizon}
		for i := s; i < n; i += shards {
			sa.Flows = append(sa.Flows, int32(i))
			sa.Start = append(sa.Start, mix.StartOf(i))
			sa.Bases = append(sa.Bases, bases[mix.ClassOf(i)])
		}
		sa.Init()
		sas[s] = sa
	}
	jm := make([]units.Time, n)
	for g := range jm {
		jm[g] = mix.Classes[mix.ClassOf(g)].Chain.JitterMax
	}
	seq := &JitterSequencer{RNG: border.RNG(), JitterMaxOf: jm, Horizon: horizon, N: n}
	seq.Init()

	chunks := make([][]Arrival, shards)
	var dels []Delivery
	inject := func(dels []Delivery) {
		for _, d := range dels {
			border.RunBefore(d.At)
			border.AdvanceTo(d.At)
			mix.Inject(d.Flow, d.Entry)
		}
	}
	for frontier := window; ; frontier += window {
		done := true
		for s, sa := range sas {
			sa.AdvanceTo(frontier)
			chunks[s], sa.Out = sa.Out, chunks[s][:0]
			if !sa.Done() {
				done = false
			}
		}
		dels = seq.Feed(chunks, frontier, dels[:0])
		inject(dels)
		if done {
			break
		}
	}
	inject(seq.Flush(dels[:0]))
	if horizon > 0 {
		border.SetHorizon(horizon)
	}
	border.Run()
}

// runSharded replays a one-class batch on the pipeline with the given
// shard count and window.
func runSharded(sched *Schedule, chain ChainSpec, n, shards int, offset, horizon, window units.Time) (*recorder, *BatchedMixture) {
	border := sim.New(99)
	pool := packet.NewPool()
	rec := &recorder{sim: border, pool: pool}
	mix := oneClass(border, sched, chain, n, offset, rec, pool)
	replay(mix, shards, horizon, window)
	return rec, mix
}

// TestShardedPipelineMatchesSerial pins the decomposition: for shard
// counts 1–4 and several window widths, the sharded pipeline delivers
// the identical packet sequence (instants, flows, sizes, frame
// metadata, send stamps) and identical per-flow counters as an
// isolated serial one-class mixture with the same seed.
func TestShardedPipelineMatchesSerial(t *testing.T) {
	sched := clumpedSchedule(42, 300)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 5
	offset := units.Time(1_712_345)

	ref, refSrc := runSerial(sched, chain, n, offset, 0)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, window := range []units.Time{700 * units.Microsecond, 10 * units.Millisecond, units.FromSeconds(1)} {
			got, gotSrc := runSharded(sched, chain, n, shards, offset, 0, window)
			compareEmissions(t, ref, got, shards, window)
			for i := 0; i < n; i++ {
				if refSrc.Sent[i] != gotSrc.Sent[i] || refSrc.SentBytes[i] != gotSrc.SentBytes[i] {
					t.Errorf("shards=%d window=%v flow %d: sent %d/%d bytes, serial %d/%d",
						shards, window, i, gotSrc.Sent[i], gotSrc.SentBytes[i], refSrc.Sent[i], refSrc.SentBytes[i])
				}
			}
		}
	}
}

// TestShardedPipelineHorizonParity pins the truncation semantics: a
// horizon that cuts the run mid-schedule must drop exactly the same
// tail in both modes (the serial event loop stops firing deliveries
// past the horizon; the sequencer drops them explicitly).
func TestShardedPipelineHorizonParity(t *testing.T) {
	sched := clumpedSchedule(7, 400)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 4
	offset := units.Time(1_712_345)
	span := sched.Entries[len(sched.Entries)-1].At
	horizon := span / 2 // mid-schedule cut

	ref, _ := runSerial(sched, chain, n, offset, horizon)
	if len(ref.got) == 0 {
		t.Fatal("horizon truncated everything; test is vacuous")
	}
	got, _ := runSharded(sched, chain, n, 3, offset, horizon, 5*units.Millisecond)
	compareEmissions(t, ref, got, 3, 5*units.Millisecond)
}

// TestShardedZeroJitter pins the degenerate chain (no RNG draws at
// all): deliveries at exact arrival instants, including same-instant
// cross-flow ties resolved by flow order.
func TestShardedZeroJitter(t *testing.T) {
	sched := clumpedSchedule(13, 200)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond}
	const n = 4
	ref, _ := runSerial(sched, chain, n, 0, 0) // zero offset: maximal ties
	got, _ := runSharded(sched, chain, n, 4, 0, 0, 3*units.Millisecond)
	compareEmissions(t, ref, got, 4, 3*units.Millisecond)
}

func compareEmissions(t *testing.T, ref, got *recorder, shards int, window units.Time) {
	t.Helper()
	if len(got.got) != len(ref.got) {
		t.Fatalf("shards=%d window=%v: delivered %d packets, serial %d",
			shards, window, len(got.got), len(ref.got))
	}
	for i := range ref.got {
		w, g := ref.got[i], got.got[i]
		if w != g {
			t.Fatalf("shards=%d window=%v packet %d diverged:\nserial  %+v\nsharded %+v",
				shards, window, i, w, g)
		}
	}
}
