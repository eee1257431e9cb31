package server

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

// TestStartKeepsOneFrameEventPending pins the frame clock: right after
// Start each server holds its next frame event (plus one feedback tick
// for the adaptive ones), not one event per frame of the clip.
func TestStartKeepsOneFrameEventPending(t *testing.T) {
	clip := video.Lost()
	cbr := video.EncodeCBR(clip, 1.0e6)
	vbr := video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps)
	var sink packet.Sink
	cases := []struct {
		name  string
		want  int
		start func(s *sim.Simulator)
	}{
		{"Paced", 1, func(s *sim.Simulator) {
			(&Paced{Sim: s, Enc: cbr, Flow: 1, Next: &sink}).Start()
		}},
		{"Burst", 2, func(s *sim.Simulator) {
			b := &Burst{Sim: s, Enc: cbr, Flow: 1, Next: &sink, Adapt: true}
			b.SetFeedback(func() (float64, units.Time) { return 0, 0 })
			b.Start()
		}},
		{"WMTUDP", 1, func(s *sim.Simulator) {
			(&WMTUDP{Sim: s, Enc: vbr, Flow: 1, Next: &sink}).Start()
		}},
		{"WMTTCP", 1, func(s *sim.Simulator) {
			snd := tcpsim.NewSender(s, 1, &sink)
			(&WMTTCP{Sim: s, Enc: vbr, Sender: snd, Asm: &client.StreamAssembler{}}).Start()
		}},
		{"Adaptive", 2, func(s *sim.Simulator) {
			a := &Adaptive{Sim: s, Encs: []*video.Encoding{cbr}, Flow: 1, Next: &sink}
			a.SetFeedback(func() float64 { return 0 })
			a.Start()
		}},
	}
	for _, c := range cases {
		s := sim.New(1)
		c.start(s)
		if got := s.Pending(); got != c.want {
			t.Errorf("%s: %d events pending after Start, want %d (clip has %d frames)",
				c.name, got, c.want, clip.FrameCount())
		}
	}
}

// TestFrameClockTimesFromStart checks that frame i leaves at exactly
// start + i·FrameInterval() — computed, not accumulated — for a server
// started off the origin.
func TestFrameClockTimesFromStart(t *testing.T) {
	s := sim.New(1)
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	start := 7 * units.Millisecond
	first := map[int]units.Time{}
	srv := &Paced{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if p.FragIndex == 0 {
				first[p.FrameSeq] = s.Now()
			}
		})}
	s.AtTimer(start, sim.TimerFunc(func(units.Time) { srv.Start() }))
	s.Run()
	if len(first) != len(enc.Frames) {
		t.Fatalf("%d frames started, clip has %d", len(first), len(enc.Frames))
	}
	for i, at := range first {
		if want := start + units.Time(int64(i))*video.FrameInterval(); at != want {
			t.Fatalf("frame %d started at %v, want %v", i, at, want)
		}
	}
}

// TestBackToBackPreconditionPanics: a server whose back-to-back frame
// send would run into the next frame must refuse to start, naming the
// offending frame.
func TestBackToBackPreconditionPanics(t *testing.T) {
	clip := video.Lost()
	vbr := video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps)
	cbr := video.EncodeCBR(clip, 1.7e6)
	cases := []struct {
		name  string
		start func(s *sim.Simulator)
	}{
		// 4235 B is three fragments: the last leaves 2.4 ms in at
		// 10 Mbps, but 240 ms in at 100 Kbps.
		{"WMTUDP", func(s *sim.Simulator) {
			(&WMTUDP{Sim: s, Enc: vbr, Flow: 1, Next: &packet.Sink{}, HostRate: 100 * units.Kbps}).Start()
		}},
		// 8543 B × 2.5 = 21357 B is 15 fragments: the last leaves
		// 42 ms in at 4 Mbps, though 8543 B alone (15 ms) would fit.
		{"Burst", func(s *sim.Simulator) {
			(&Burst{Sim: s, Enc: cbr, Flow: 1, Next: &packet.Sink{}, HostRate: 4 * units.Mbps}).Start()
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, c.name+" frame ") {
					t.Errorf("%s: Start panic = %v, want a message naming the frame", c.name, r)
				}
			}()
			c.start(sim.New(1))
		}()
	}
}

// TestShippedEncodingsSendRingMargin pins how far inside the send
// ring's precondition the repo's own encodings sit: the largest WMV
// VBR frame against WMTUDP's default 10 Mbps host, and the largest
// MPEG CBR frame at Burst's 2.5× multiplier cap against its default
// 100 Mbps host, for both clips.
func TestShippedEncodingsSendRingMargin(t *testing.T) {
	interval := video.FrameInterval()
	for _, clip := range []*video.Clip{video.Lost(), video.Dark()} {
		_, vbr := largestFrame(video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps))
		_, mpeg := largestFrame(video.EncodeCBR(clip, 1.7e6))
		burst := burstSize(mpeg, maxRateMultiplier)
		for _, c := range []struct {
			name        string
			size, pin   int
			rate        units.BitRate
			budget      int64
			marginFloor int64
		}{
			{"WMTUDP", vbr, 4235, 10 * units.Mbps, 41708, 9},
			{"Burst", burst, 21357, 100 * units.Mbps, 417083, 19},
		} {
			if c.size != c.pin {
				t.Errorf("%s %s: largest frame %d B, pinned %d B", clip.Name, c.name, c.size, c.pin)
			}
			if got := c.rate.BytesIn(interval); got != c.budget {
				t.Errorf("%s: one interval at %v carries %d B, pinned %d B", c.name, c.rate, got, c.budget)
			}
			if c.budget < c.marginFloor*int64(c.size) {
				t.Errorf("%s %s: %d B frame within %dx of the %d B interval budget", clip.Name, c.name, c.size, c.marginFloor, c.budget)
			}
			checkBackToBack(clip.Name+" "+c.name, 0, c.size, c.rate) // panics on a breach
		}
	}
}
