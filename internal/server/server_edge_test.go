package server

import (
	"testing"

	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

func TestPacedCustomMsgSize(t *testing.T) {
	s := sim.New(1)
	maxPayload := 0
	enc := tiny(t, 1.0e6)
	srv := &Paced{Sim: s, Enc: enc, Flow: 1, MsgSize: 512,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if pl := p.Size - UDPHeader; pl > maxPayload {
				maxPayload = pl
			}
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(2))
	s.Run()
	if maxPayload > 512 {
		t.Errorf("payload %d exceeds configured message size", maxPayload)
	}
}

func TestPacedFragmentSizesSumToFrame(t *testing.T) {
	s := sim.New(1)
	sizes := map[int]int{}
	enc := tiny(t, 1.7e6)
	srv := &Paced{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			sizes[p.FrameSeq] += p.Size - UDPHeader
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(3))
	s.Run()
	for seq, total := range sizes {
		if seq < 60 && total != enc.Frames[seq].Size {
			t.Fatalf("frame %d: fragments sum to %d, frame is %d", seq, total, enc.Frames[seq].Size)
		}
	}
}

func TestBurstLargeFrameSpansDatagrams(t *testing.T) {
	// A frame larger than MaxDatagram must still be sent completely,
	// as multiple datagrams whose fragments share the frame's fate.
	s := sim.New(1)
	clip := video.Lost()
	// Use a high rate so frames are large; scale up artificially by
	// using the rate multiplier path (frame sizes ~8.5 KB < 16280, so
	// craft an encoding with a big frame instead).
	enc := video.EncodeCBR(clip, 1.7e6)
	big := *enc
	big.Frames = append([]video.EncodedFrame(nil), enc.Frames...)
	big.Frames[0].Size = 40000 // 3 datagrams
	var got int
	srv := &Burst{Sim: s, Enc: &big, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if p.FrameSeq == 0 {
				got += p.Size - UDPHeader
			}
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(1))
	s.Run()
	if got != 40000 {
		t.Errorf("delivered %d bytes of a 40000-byte frame", got)
	}
}

// TestBurstOversizedFrameReassembles sends a frame of two full
// datagrams (2 × MaxDatagram bytes) straight into a receiver: every
// fragment arrives, so the frame must reassemble whole. Each datagram
// is fragmented on its own — 12 fragments apiece — and every fragment
// declares the frame's 24.
func TestBurstOversizedFrameReassembles(t *testing.T) {
	s := sim.New(1)
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	big := *enc
	big.Frames = append([]video.EncodedFrame(nil), enc.Frames...)
	big.Frames[0].Size = 2 * MaxDatagram
	cl := client.NewUDP(s, len(big.Frames))
	srv := &Burst{Sim: s, Enc: &big, Flow: 1, Next: cl}
	srv.Start()
	s.SetHorizon(units.FromSeconds(1))
	s.Run()
	tr := cl.Finish()
	if len(tr.Records) == 0 || tr.Records[0].Seq != 0 {
		t.Fatalf("frame 0 (%d B) never reassembled", big.Frames[0].Size)
	}
	if r := tr.Records[0]; r.Frags != 24 || r.LostFrags != 0 {
		t.Errorf("frame 0: %d fragments declared, %d lost; want 24 and 0", r.Frags, r.LostFrags)
	}
}

func TestWMTTCPNoThinningOnFastPath(t *testing.T) {
	// A sender whose segments are acked instantly (infinite-capacity
	// network) must never thin.
	s := sim.New(1)
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	var snd *tcpsim.Sender
	snd = tcpsim.NewSender(s, 1, packet.HandlerFunc(func(p *packet.Packet) {
		ack := &packet.Packet{Flow: 1, Proto: packet.TCP, Size: tcpsim.HeaderSize,
			Ack: p.Seq + int64(p.Size-tcpsim.HeaderSize), IsAck: true}
		s.AfterTimer(units.Microsecond, sim.TimerFunc(func(units.Time) { snd.HandleAck(ack) }))
	}))
	asm := &client.StreamAssembler{}
	srv := &WMTTCP{Sim: s, Enc: enc, Sender: snd, Asm: asm}
	srv.Start()
	s.SetHorizon(units.FromSeconds(enc.Clip.DurationSeconds() + 2))
	s.Run()
	if srv.FramesSent == 0 {
		t.Fatal("nothing sent")
	}
	if srv.FramesThinned != 0 {
		t.Errorf("thinned %d frames on an infinite-capacity path", srv.FramesThinned)
	}
}
