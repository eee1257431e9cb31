// Package server implements the streaming servers whose behaviours the
// paper contrasts (§2.2, §4):
//
//   - Paced: the IBM VideoCharger™ profile — small application
//     messages, transmission of each frame paced across the frame
//     interval. Used for the QBone experiments.
//   - Burst: the Microsoft Netshow Theater™ / 2netfx ThunderCastIP™
//     profile — application datagrams up to 16280 bytes that the IP
//     stack fragments into back-to-back 1500-byte packets, plus the
//     naive rate-adaptation loop that misreads policing losses and
//     spirals (the paper found these servers unusable behind an EF
//     policer and excluded them from the main experiments).
//   - WMT: the Windows Media™ profile — capped-VBR content, reduced
//     message sizes that fit single packets, streamed over UDP (bursty)
//     or over TCP with server-side stream thinning. Used for the local
//     testbed experiments.
//
// Every server streams its clip through one frameClock, and the UDP
// servers hand their fragments to one sender.
package server

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

// UDPHeader is the IP+UDP overhead added to each application message.
const UDPHeader = 28

// MaxUDPPayload is the payload that fits one Ethernet MTU.
const MaxUDPPayload = units.EthernetMTU - UDPHeader

// nextID stamps server packets from the process-wide counter shared
// with the traffic sources (see packet.NewID): one counter means a
// server packet and a source packet never carry the same id, which is
// what keeps canonicalized trace captures run-order independent.
func nextID() uint64 { return packet.NewID() }

// frameClock fires a server's per-frame callback for frame i at
// start + i·FrameInterval(), each time computed from start rather
// than accumulated. It is one Timer that re-arms itself, so a clip
// keeps exactly one frame event pending.
type frameClock struct {
	sim   *sim.Simulator
	start units.Time
	next  int // frame the pending event fires
	n     int // frames in the clip
	frame func(i int)
}

// run starts the clock at the current instant for an n-frame clip.
func (c *frameClock) run(s *sim.Simulator, n int, frame func(i int)) {
	*c = frameClock{sim: s, start: s.Now(), n: n, frame: frame}
	if n > 0 {
		s.AtTimer(c.start, c)
	}
}

// Fire re-arms the clock for the next frame before sending this one,
// so the next frame's event is sequenced ahead of every fragment timer
// this frame schedules.
func (c *frameClock) Fire(units.Time) {
	i := c.next
	c.next++
	if c.next < c.n {
		c.sim.AtTimer(c.start+units.Time(int64(c.next))*video.FrameInterval(), c)
	}
	c.frame(i)
}

// fragments is the number of msg-byte payloads a size-byte message
// splits into; fragment j carries min(msg, size-j·msg) bytes. An empty
// message still takes one header-only fragment.
func fragments(size, msg int) int { return max(1, (size+msg-1)/msg) }

// datagramFragments is the number of MTU-sized fragments a size-byte
// frame takes when sent as datagrams of at most dgram bytes, each
// fragmented on its own.
func datagramFragments(size, dgram int) int {
	n := 0
	for off := 0; ; off += dgram {
		n += fragments(min(dgram, size-off), MaxUDPPayload)
		if off+dgram >= size {
			return n
		}
	}
}

// checkBackToBack panics unless the last MTU-sized fragment of frame i
// (size bytes in datagrams of at most dgram bytes), sent back-to-back
// at rate, leaves before the next frame starts — the precondition of
// the sender's FIFO ring.
func checkBackToBack(who string, i, size, dgram int, rate units.BitRate) {
	n := datagramFragments(size, dgram)
	if units.Time(int64(n-1))*rate.TxTime(units.EthernetMTU) >= video.FrameInterval() {
		panic(fmt.Sprintf("server: %s frame %d (%d B) does not leave within one frame interval at %v",
			who, i, size, rate))
	}
}

// largestFrame reports the index and size of enc's largest frame.
func largestFrame(enc *video.Encoding) (i, size int) {
	for j, f := range enc.Frames {
		if f.Size > size {
			i, size = j, f.Size
		}
	}
	return i, size
}

// sender is the fragment send path the UDP servers share: fragments
// wait in a FIFO ring and one Timer per fragment sends the ring head.
// That is exact because send instants never decrease: within a frame
// by construction, and across frames because a frame's last fragment
// leaves before the next frame starts — Paced and Adaptive spread a
// frame inside its interval, and Burst and WMTUDP check their largest
// frame at Start. Embedding it gives a server its Sent / SentBytes
// counters.
type sender struct {
	Sent      int   // packets handed to the next hop
	SentBytes int64 // their wire bytes, headers included

	sim  *sim.Simulator
	next packet.Handler
	flow packet.FlowID
	pool *packet.Pool
	ring packet.Ring
}

// sendTimer is the pointer-conversion Timer of a sender.
type sendTimer sender

// Fire stamps and transmits the ring head.
func (t *sendTimer) Fire(now units.Time) {
	s := (*sender)(t)
	p := s.ring.Pop()
	p.SentAt = now
	s.Sent++
	s.SentBytes += int64(p.Size)
	s.next.Handle(p)
}

// queue schedules fragment j of frags of frame i, carrying payload
// bytes, to leave at offset at from now.
func (s *sender) queue(i, j, frags, payload int, at units.Time) {
	p := s.pool.Get()
	p.ID, p.Flow, p.Proto = nextID(), s.flow, packet.UDP
	p.Size = payload + UDPHeader
	p.FrameSeq, p.FragIndex, p.FragCount = i, j, frags
	s.ring.Push(p)
	s.sim.AfterTimer(at, (*sendTimer)(s))
}

// spread queues frame i of size bytes as msg-byte fragments, fragment
// j of n leaving at span·j/n.
func (s *sender) spread(i, size, msg int, span units.Time) {
	n := fragments(size, msg)
	for j := 0; j < n; j++ {
		s.queue(i, j, n, min(msg, size-j*msg), units.Time(int64(span)*int64(j)/int64(n)))
	}
}

// backToBack queues frame i of size bytes as datagrams of at most
// dgram bytes, each cut into MTU-sized fragments. The fragments leave
// back-to-back at rate, numbered across the whole frame, and each
// declares the frame's fragment count, so a frame that arrives whole
// reassembles.
func (s *sender) backToBack(i, size, dgram int, rate units.BitRate) {
	frags := datagramFragments(size, dgram)
	var at units.Time
	j := 0
	for off := 0; ; off += dgram {
		d := min(dgram, size-off)
		for k := 0; k < fragments(d, MaxUDPPayload); k++ {
			payload := min(MaxUDPPayload, d-k*MaxUDPPayload)
			s.queue(i, j, frags, payload, at)
			at += rate.TxTime(payload + UDPHeader)
			j++
		}
		if off+dgram >= size {
			return
		}
	}
}

// Paced streams an encoding over UDP, sending each frame's packets
// evenly spaced across a fraction of the frame interval — the
// transmission pacing that made the VideoCharger usable behind an EF
// policer.
type Paced struct {
	Sim  *sim.Simulator
	Enc  *video.Encoding
	Flow packet.FlowID
	Next packet.Handler
	Pool *packet.Pool // packet arena; nil falls back to the heap

	// MsgSize is the application message payload per packet; the
	// VideoCharger "allows smaller message sizes" (§2.2). Default:
	// one MTU's worth.
	MsgSize int
	// PaceSpread is the fraction of the frame interval across which a
	// frame's packets are spread (default 0.95). Values above 1 panic
	// in Start: the send ring relies on a frame's fragments finishing
	// before the next frame starts, which holds for any spread ≤ 1
	// (the last fragment leaves at spread·(frags-1)/frags of the
	// interval, strictly inside it).
	PaceSpread float64

	sender
	clock frameClock
}

// Start begins streaming the clip at the current instant.
func (s *Paced) Start() {
	if s.MsgSize <= 0 {
		s.MsgSize = MaxUDPPayload
	}
	if s.PaceSpread <= 0 {
		s.PaceSpread = 0.95
	}
	if s.PaceSpread > 1 {
		panic("server: Paced.PaceSpread > 1 would overlap adjacent frames' sends")
	}
	s.sender = sender{sim: s.Sim, next: s.Next, flow: s.Flow, pool: s.Pool}
	s.clock.run(s.Sim, len(s.Enc.Frames), s.sendFrame)
}

func (s *Paced) sendFrame(i int) {
	span := units.Time(float64(video.FrameInterval()) * s.PaceSpread)
	s.spread(i, s.Enc.Frames[i].Size, s.MsgSize, span)
}

// MaxDatagram is the largest application datagram the bursty servers
// generate (§2.2: "up to 16280 bytes long").
const MaxDatagram = 16280

// maxRateMultiplier caps Burst's adaptive rate multiplier.
const maxRateMultiplier = 2.5

// Burst streams an encoding the way the large-datagram servers did:
// each frame becomes one application datagram (up to MaxDatagram)
// whose IP fragments leave the host back-to-back at the access-link
// rate. Its Adaptation loop reproduces the §4 death spiral: policing
// losses with low delivery delay are read as "more bandwidth needed",
// the rate multiplier rises, losses get worse, and the server
// eventually collapses to a minimal rate and starts over.
type Burst struct {
	Sim      *sim.Simulator
	Enc      *video.Encoding
	Flow     packet.FlowID
	Next     packet.Handler
	Pool     *packet.Pool  // packet arena; nil falls back to the heap
	HostRate units.BitRate // NIC serialization rate; default 100 Mbps

	// Adaptation configuration.
	Adapt          bool
	FeedbackEvery  units.Time // default 1 s
	lossProbe      func() (lossFrac float64, avgDelay units.Time)
	rateMultiplier float64

	Multipliers []float64 // rate multiplier history, one per feedback tick

	sender
	clock frameClock
}

// SetFeedback wires the client-side probe the adaptation loop polls.
func (b *Burst) SetFeedback(probe func() (float64, units.Time)) { b.lossProbe = probe }

// Start begins streaming the clip at the current instant. It panics if
// the largest frame, scaled by the multiplier cap, could not leave the
// host within one frame interval at HostRate.
func (b *Burst) Start() {
	if b.HostRate <= 0 {
		b.HostRate = 100 * units.Mbps
	}
	if b.FeedbackEvery <= 0 {
		b.FeedbackEvery = units.Second
	}
	i, size := largestFrame(b.Enc)
	checkBackToBack("Burst", i, burstSize(size, maxRateMultiplier), MaxDatagram, b.HostRate)
	b.rateMultiplier = 1
	b.sender = sender{sim: b.Sim, next: b.Next, flow: b.Flow, pool: b.Pool}
	b.clock.run(b.Sim, len(b.Enc.Frames), b.sendFrame)
	if b.Adapt && b.lossProbe != nil {
		b.Sim.AfterTimer(b.FeedbackEvery, (*burstAdaptTimer)(b))
	}
}

// burstAdaptTimer is Burst's feedback loop: one Timer that polls the
// probe, steps the rate multiplier and re-arms FeedbackEvery later.
type burstAdaptTimer Burst

func (t *burstAdaptTimer) Fire(units.Time) {
	b := (*Burst)(t)
	loss, delay := b.lossProbe()
	switch {
	case loss > 0.35:
		// Catastrophic: back way off, then start climbing again.
		b.rateMultiplier = 0.3
	case loss > 0.005 && delay < 50*units.Millisecond:
		// Losses but fast delivery: the EF guarantee confuses the
		// estimator into believing bandwidth is plentiful, so it
		// *raises* the rate to "make up for the losses".
		b.rateMultiplier *= 1.25
		if b.rateMultiplier > maxRateMultiplier {
			b.rateMultiplier = maxRateMultiplier
		}
	case loss == 0:
		// Creep back toward nominal.
		b.rateMultiplier = 0.8*b.rateMultiplier + 0.2
	}
	b.Multipliers = append(b.Multipliers, b.rateMultiplier)
	b.Sim.AfterTimer(b.FeedbackEvery, (*burstAdaptTimer)(b))
}

// burstSize is the bytes Burst sends for a size-byte frame at rate
// multiplier mult.
func burstSize(size int, mult float64) int {
	n := int(float64(size) * mult)
	if n < 200 {
		n = 200
	}
	return n
}

func (b *Burst) sendFrame(i int) {
	size := burstSize(b.Enc.Frames[i].Size, b.rateMultiplier)
	// Split the frame into application datagrams; each datagram is
	// fragmented by the IP stack into MTU-sized packets that leave
	// back-to-back at the host NIC rate. One lost fragment loses the
	// datagram, and hence the frame.
	b.backToBack(i, size, MaxDatagram, b.HostRate)
}

// WMTUDP streams a capped-VBR encoding over UDP with reduced message
// sizes (each message fits one packet), but sends each frame's packets
// back-to-back at the host rate — the burstiness that made local UDP
// streaming "too bursty to allow meaningful experimentation" (§4.2).
type WMTUDP struct {
	Sim      *sim.Simulator
	Enc      *video.Encoding
	Flow     packet.FlowID
	Next     packet.Handler
	Pool     *packet.Pool  // packet arena; nil falls back to the heap
	HostRate units.BitRate // default 10 Mbps Ethernet

	sender
	clock frameClock
}

// Start begins streaming the clip at the current instant. It panics if
// the largest frame could not leave the host within one frame interval
// at HostRate.
func (s *WMTUDP) Start() {
	if s.HostRate <= 0 {
		s.HostRate = 10 * units.Mbps
	}
	i, size := largestFrame(s.Enc)
	checkBackToBack("WMTUDP", i, size, size, s.HostRate)
	s.sender = sender{sim: s.Sim, next: s.Next, flow: s.Flow, pool: s.Pool}
	s.clock.run(s.Sim, len(s.Enc.Frames), s.sendFrame)
}

func (s *WMTUDP) sendFrame(i int) {
	size := s.Enc.Frames[i].Size
	s.backToBack(i, size, size, s.HostRate) // no datagram split
}

// WMTTCP streams a capped-VBR encoding over the simulated TCP
// connection, with server-side stream thinning: when the unsent
// backlog exceeds ThinningBacklog (the connection cannot sustain the
// encoding rate), frames are skipped instead of queued, which is how
// the real server kept a live stream live. Thinned frames are the
// "lost frames" of the TCP experiments.
type WMTTCP struct {
	Sim    *sim.Simulator
	Enc    *video.Encoding
	Sender *tcpsim.Sender
	Asm    *client.StreamAssembler

	// ThinningBacklog in bytes of queued-but-unsent data above which
	// frames are dropped. A streaming server must stay "live", so the
	// default is only half a second of content at the encoding cap —
	// once the connection falls further behind than that, frames are
	// skipped rather than queued.
	ThinningBacklog int64

	FramesSent    int
	FramesThinned int

	clock frameClock
}

// Start begins writing the clip's frames at the current instant.
func (s *WMTTCP) Start() {
	if s.ThinningBacklog == 0 {
		s.ThinningBacklog = int64(float64(s.Enc.Target) / 8 / 2)
	}
	s.clock.run(s.Sim, len(s.Enc.Frames), s.writeFrame)
}

func (s *WMTTCP) writeFrame(i int) {
	if s.Sender.Backlog() > s.ThinningBacklog {
		s.FramesThinned++
		return
	}
	length := int64(s.Enc.Frames[i].Size + client.FrameHeaderSize)
	s.Asm.RegisterMessage(i, length)
	s.FramesSent++
	s.Sender.Write(length)
}

// Adaptive selects among multiple encodings of the same clip (the WMV
// multi-rate feature, §2.2/§3.3.2) based on client loss feedback, and
// streams the current selection frame by frame over UDP with pacing.
// It demonstrates "intelligent streaming": unlike Burst's estimator it
// treats loss as congestion and steps *down*.
type Adaptive struct {
	Sim  *sim.Simulator
	Encs []*video.Encoding // ordered low rate -> high rate
	Flow packet.FlowID
	Next packet.Handler
	Pool *packet.Pool // packet arena; nil falls back to the heap

	FeedbackEvery units.Time
	lossProbe     func() float64

	level    int
	Switches int
	Levels   []int // level history per feedback tick

	sender
	clock frameClock
}

// SetFeedback wires the loss probe.
func (a *Adaptive) SetFeedback(probe func() float64) { a.lossProbe = probe }

// Level reports the current encoding level.
func (a *Adaptive) Level() int { return a.level }

// Start begins streaming at the highest level.
func (a *Adaptive) Start() {
	if a.FeedbackEvery <= 0 {
		a.FeedbackEvery = units.Second
	}
	a.level = len(a.Encs) - 1
	a.sender = sender{sim: a.Sim, next: a.Next, flow: a.Flow, pool: a.Pool}
	a.clock.run(a.Sim, a.Encs[0].Clip.FrameCount(), a.sendFrame)
	if a.lossProbe != nil {
		a.Sim.AfterTimer(a.FeedbackEvery, (*adaptiveTimer)(a))
	}
}

// adaptiveTimer is Adaptive's feedback loop: one Timer that polls the
// probe, steps the level and re-arms FeedbackEvery later.
type adaptiveTimer Adaptive

func (t *adaptiveTimer) Fire(units.Time) {
	a := (*Adaptive)(t)
	loss := a.lossProbe()
	switch {
	case loss > 0.02 && a.level > 0:
		a.level--
		a.Switches++
	case loss < 0.002 && a.level < len(a.Encs)-1:
		a.level++
		a.Switches++
	}
	a.Levels = append(a.Levels, a.level)
	a.Sim.AfterTimer(a.FeedbackEvery, (*adaptiveTimer)(a))
}

// sendFrame paces frame i of the current level across 80% of the frame
// interval.
func (a *Adaptive) sendFrame(i int) {
	span := units.Time(int64(video.FrameInterval()) * 8 / 10)
	a.spread(i, a.Encs[a.level].Frames[i].Size, MaxUDPPayload, span)
}
