package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testConfig keeps retransmission timers fast so lossy tests converge
// quickly.
func testConfig() Config {
	return Config{RTOMin: time.Millisecond, RTOMax: 50 * time.Millisecond, MaxRetries: 30}
}

// pair builds a connected endpoint pair over an in-memory pipe, with
// optional fault injection on each direction.
func pair(t testing.TB, cfg Config, fault *FaultConfig) (sender, receiver *Endpoint) {
	t.Helper()
	a, b := Pipe()
	ca, cb := net.PacketConn(a), net.PacketConn(b)
	if fault != nil {
		ackFault := *fault
		ackFault.Seed = fault.Seed ^ 0x5eed
		ca = NewFaultConn(a, *fault)
		cb = NewFaultConn(b, ackFault)
	}
	sender = NewEndpoint(ca, b.LocalAddr(), 1, cfg)
	receiver = NewEndpoint(cb, a.LocalAddr(), 1, cfg)
	t.Cleanup(func() { sender.Close(); receiver.Close() })
	return sender, receiver
}

// lossRates returns the loss percentages to exercise. CI's loss-matrix
// job pins one rate per shard via SPINDDT_LOSS_PCT; a plain `go test`
// runs the whole matrix.
func lossRates(t *testing.T) []int {
	if s := os.Getenv("SPINDDT_LOSS_PCT"); s != "" {
		pct, err := strconv.Atoi(s)
		if err != nil || pct < 0 || pct > 90 {
			t.Fatalf("SPINDDT_LOSS_PCT=%q: want an integer percentage in [0, 90]", s)
		}
		return []int{pct}
	}
	return []int{0, 1, 10}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: FrameData, AckReq: true, Session: 7, Message: 9, Seq: 3, Aux: 42, Payload: []byte("hello frame")}
	pkt := AppendFrame(nil, &f)
	got, err := DecodeFrame(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.AckReq != f.AckReq || got.Session != f.Session || got.Message != f.Message ||
		got.Seq != f.Seq || got.Aux != f.Aux || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	// The ack-request bit is a data-frame flag; an ack carrying it is not
	// a frame the sender could have produced.
	if _, err := DecodeFrame(AppendFrame(nil, &Frame{Type: FrameAck, AckReq: true})); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("ack with ack-request bit: %v", err)
	}

	// Every single-bit corruption anywhere in the datagram must be
	// rejected — the checksum is the transport's integrity floor.
	for i := range pkt {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), pkt...)
			mut[i] ^= 1 << uint(bit)
			if _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("corruption at byte %d bit %d accepted", i, bit)
			}
		}
	}

	if _, err := DecodeFrame(pkt[:HeaderSize-1]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("short frame: %v", err)
	}
	if _, err := DecodeFrame(append(append([]byte(nil), pkt...), 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestPeekFrame(t *testing.T) {
	pkt := AppendFrame(nil, &Frame{Type: FrameAck, Session: 5, Message: 6, Seq: 2, Aux: 0xf})
	f, ok := PeekFrame(pkt)
	if !ok || f.Type != FrameAck || f.AckReq || f.Session != 5 || f.Message != 6 || f.Seq != 2 || f.Aux != 0xf {
		t.Fatalf("peek = %+v, %v", f, ok)
	}
	// Fault filters match on f.Type == FrameData; an ack-requesting data
	// frame must still read as one.
	if f, ok := PeekFrame(AppendFrame(nil, &Frame{Type: FrameData, AckReq: true, Aux: 1})); !ok || f.Type != FrameData || !f.AckReq {
		t.Fatalf("peek of ack-requesting data frame = %+v, %v", f, ok)
	}
	if _, ok := PeekFrame([]byte("not a frame")); ok {
		t.Fatal("peek accepted garbage")
	}
}

// TestSendRecvSizes moves messages across the size spectrum — sub-frame,
// exact frame multiples, multi-window — and requires byte-identical
// delivery of header and payload.
func TestSendRecvSizes(t *testing.T) {
	sender, receiver := pair(t, testConfig(), nil)
	chunk := sender.cfg.MaxPayload
	sizes := []int{0, 1, chunk - 5, chunk - 4, chunk, chunk + 1, 3 * chunk, 40*chunk + 17}
	for i, size := range sizes {
		hdr := []byte(fmt.Sprintf("hdr-%d", size))
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 31)
		}
		id := uint32(i)
		if err := sender.Send(id, hdr, body); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		msg, err := receiver.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if msg.ID != id || !bytes.Equal(msg.Hdr, hdr) || !bytes.Equal(msg.Payload, body) {
			t.Fatalf("size %d: delivered message differs (id %d, hdr %q, %d payload bytes)",
				size, msg.ID, msg.Hdr, len(msg.Payload))
		}
		msg.Release()
	}
	if s := sender.Stats(); s.MsgsSent != int64(len(sizes)) {
		t.Fatalf("sender stats: %+v", s)
	}
}

// TestLossMatrix is the transport's core reliability property: under
// seeded drop+duplicate+reorder+corrupt injection on both directions,
// every message still arrives exactly once, byte-identical, in bounded
// time. Runs at each rate of the loss matrix (see lossRates).
func TestLossMatrix(t *testing.T) {
	for _, pct := range lossRates(t) {
		t.Run(fmt.Sprintf("loss%d", pct), func(t *testing.T) {
			rate := float64(pct) / 100
			fault := &FaultConfig{
				Seed:        1337,
				DropRate:    rate,
				DupRate:     rate / 2,
				ReorderRate: rate / 2,
				CorruptRate: rate / 2,
			}
			sender, receiver := pair(t, testConfig(), fault)

			const msgs = 8
			payloads := make([][]byte, msgs)
			var wg sync.WaitGroup
			errs := make(chan error, msgs)
			for i := 0; i < msgs; i++ {
				body := make([]byte, 3000+i*1777)
				for j := range body {
					body[j] = byte(j + i)
				}
				payloads[i] = body
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if err := sender.Send(uint32(id), []byte{byte(id)}, payloads[id]); err != nil {
						errs <- fmt.Errorf("send %d: %w", id, err)
					}
				}(i)
			}

			seen := make(map[uint32]bool)
			for i := 0; i < msgs; i++ {
				msg, err := receiver.Recv(30 * time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if seen[msg.ID] {
					t.Fatalf("message %d delivered twice", msg.ID)
				}
				seen[msg.ID] = true
				if len(msg.Hdr) != 1 || msg.Hdr[0] != byte(msg.ID) {
					t.Fatalf("message %d: header %v", msg.ID, msg.Hdr)
				}
				if !bytes.Equal(msg.Payload, payloads[msg.ID]) {
					t.Fatalf("message %d: payload differs", msg.ID)
				}
				msg.Release()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if pct >= 10 {
				if s := sender.Stats(); s.Retransmits == 0 {
					t.Fatalf("%d%% loss produced no retransmissions: %+v", pct, s)
				}
			}
		})
	}
}

// TestSendTimeout pins the bounded retry budget: a fault filter that
// drops every data frame of one message makes exactly that send fail
// with ErrTimeout while its sibling completes.
func TestSendTimeout(t *testing.T) {
	fault := &FaultConfig{
		DropRate: 1,
		Filter: func(pkt []byte) bool {
			f, ok := PeekFrame(pkt)
			return ok && f.Type == FrameData && f.Message == 1
		},
	}
	cfg := testConfig()
	cfg.MaxRetries = 3
	a, b := Pipe()
	sender := NewEndpoint(NewFaultConn(a, *fault), b.LocalAddr(), 1, cfg)
	receiver := NewEndpoint(b, a.LocalAddr(), 1, cfg)
	defer sender.Close()
	defer receiver.Close()

	okCh := make(chan error, 1)
	go func() { okCh <- sender.Send(0, nil, make([]byte, 5000)) }()

	start := time.Now()
	err := sender.Send(1, nil, make([]byte, 5000))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped message: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry budget took %v to exhaust", elapsed)
	}
	if err := <-okCh; err != nil {
		t.Fatalf("sibling send failed: %v", err)
	}
	if s := sender.Stats(); s.Timeouts != 1 || s.MsgsSent != 1 {
		t.Fatalf("stats: %+v", s)
	}
	msg, err := receiver.Recv(5 * time.Second)
	if err != nil || msg.ID != 0 {
		t.Fatalf("sibling delivery: id %d err %v", msg.ID, err)
	}
	msg.Release()
}

// quietConfig keeps the RTO far above the in-memory pipe's round trip, so
// any retransmission in a clean run means the sender stalled waiting for
// an ack it never asked for.
func quietConfig(window int) Config {
	return Config{Window: window, RTOMin: 250 * time.Millisecond, RTOMax: time.Second}
}

// sendOne sends body over the pair as message id and requires
// byte-identical delivery.
func sendOne(t *testing.T, sender, receiver *Endpoint, id uint32, body []byte) {
	t.Helper()
	if err := sender.Send(id, nil, body); err != nil {
		t.Fatal(err)
	}
	msg, err := receiver.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer msg.Release()
	if msg.ID != id || !bytes.Equal(msg.Payload, body) {
		t.Fatalf("delivered message %d differs (%d payload bytes)", msg.ID, len(msg.Payload))
	}
}

// TestAckPolicyClean pins the ack budget of a clean send over the Pipe,
// which reads one frame per batch: a 64 KiB message fills 46 full-MTU
// frames, and with the default window of 32 the receiver acks frames 7,
// 15, 23, 31, 39 (stride 8, which also covers every window-filling
// frame) and the final frame 45.
func TestAckPolicyClean(t *testing.T) {
	sender, receiver := pair(t, quietConfig(0), nil)
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i * 13)
	}
	sendOne(t, sender, receiver, 0, body)
	s, r := sender.Stats(), receiver.Stats()
	if s.DataSent != 46 || s.Retransmits != 0 || s.AcksReceived != 6 || r.AcksSent != 6 {
		t.Fatalf("sender %+v, receiver %+v: want 46 frames, 0 retransmits, 6 acks", s, r)
	}
}

// TestAckPolicyWindows sends multi-window messages at window sizes on
// both sides of the stride rounding (Window/4 of 0, 1 and 8) and at the
// cap. The newest frame in flight must always request an ack; if it did
// not, the send would stall until the RTO and retransmit.
func TestAckPolicyWindows(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32, 33} {
		t.Run(fmt.Sprintf("window%d", w), func(t *testing.T) {
			sender, receiver := pair(t, quietConfig(w), nil)
			body := make([]byte, 5*w*MaxPayloadSize-100)
			for i := range body {
				body[i] = byte(i * 7)
			}
			sendOne(t, sender, receiver, 0, body)
			if s := sender.Stats(); s.Retransmits != 0 {
				t.Fatalf("window %d: %d retransmits in a clean run: %+v", w, s.Retransmits, s)
			}
		})
	}
}

// TestAckRequestLost drops only the first ack-requesting frame. Nothing
// asks for that frame's ack again until the RTO retransmits it (the
// retransmission asks), so the message must still arrive byte-identical.
func TestAckRequestLost(t *testing.T) {
	dropped := false
	a, b := Pipe()
	fc := NewFaultConn(a, FaultConfig{
		DropRate: 1,
		Filter: func(pkt []byte) bool {
			f, ok := PeekFrame(pkt)
			if !ok || f.Type != FrameData || !f.AckReq || dropped {
				return false
			}
			dropped = true // FaultConn calls the filter under its lock
			return true
		},
	})
	sender := NewEndpoint(fc, b.LocalAddr(), 1, testConfig())
	receiver := NewEndpoint(b, a.LocalAddr(), 1, testConfig())
	defer sender.Close()
	defer receiver.Close()

	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i * 29)
	}
	sendOne(t, sender, receiver, 0, body)
	if fs := fc.Stats(); fs.Dropped != 1 {
		t.Fatalf("fault stats %+v: want exactly one dropped frame", fs)
	}
	if s := sender.Stats(); s.Retransmits == 0 {
		t.Fatalf("dropped frame was never retransmitted: %+v", s)
	}
}

// TestMaxPayloadMismatch pins the reassembly guard: the receiver places
// frame seq at seq*MaxPayload, so frames from a sender with a smaller
// MaxPayload would land with gaps between them. The receiver drops them
// instead; the send times out and nothing is delivered.
func TestMaxPayloadMismatch(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRetries = 3
	small := cfg
	small.MaxPayload = 1000
	a, b := Pipe()
	sender := NewEndpoint(a, b.LocalAddr(), 1, small)
	receiver := NewEndpoint(b, a.LocalAddr(), 1, cfg)
	defer sender.Close()
	defer receiver.Close()

	if err := sender.Send(0, nil, make([]byte, 5000)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mismatched send: err = %v, want ErrTimeout", err)
	}
	if msg, err := receiver.Recv(50 * time.Millisecond); err == nil {
		msg.Release()
		t.Fatalf("mis-assembled message delivered (%d payload bytes)", len(msg.Payload))
	}
	if r := receiver.Stats(); r.MsgsReceived != 0 {
		t.Fatalf("receiver stats %+v: want nothing delivered", r)
	}
}

// TestEndpointClose pins shutdown semantics: Recv and Send on a closed
// endpoint fail with ErrClosed, Close is idempotent.
func TestEndpointClose(t *testing.T) {
	sender, receiver := pair(t, testConfig(), nil)
	if err := sender.Send(0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msg, err := receiver.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg.Release()
	receiver.Close()
	receiver.Close()
	if _, err := receiver.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}

	// A Send on a closed endpoint fails at its first write on the closed
	// conn, instead of waiting out the retry budget.
	sender.Close()
	done := make(chan error, 1)
	go func() { done <- sender.Send(1, nil, []byte("y")) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("send after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send after close hangs")
	}
}

// TestRetransmitOnClosedConn closes the conn under a Send that waits for
// acks nobody sends: the retransmission's write fails through the
// FaultConn, and Send returns ErrClosed instead of spending its retry
// budget.
func TestRetransmitOnClosedConn(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	sender := NewEndpoint(NewFaultConn(a, FaultConfig{}), b.LocalAddr(), 1, testConfig())
	defer sender.Close()
	done := make(chan error, 1)
	go func() { done <- sender.Send(0, nil, []byte("never acked")) }()
	// The one data frame has been written once it is readable at b; no
	// endpoint reads b, so no ack comes back, and every later write is a
	// retransmission.
	if _, _, err := b.ReadFrom(make([]byte, MaxFrameSize)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("send over a closed conn: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send over a closed conn hangs")
	}
}

// TestForgedFrames pins the receiver's bounds on frames no correct
// sender produces. A single data frame's claimed frame count must not
// size what the receiver holds: frames claiming 2^16 and 2^31-1 frames
// (~94 MB and ~3 TB of message) each cost the receiver at most 256 KiB
// of allocation. A one-frame stream too short to hold its header length
// is dropped rather than read past its end. A legitimate message still
// arrives afterwards.
func TestForgedFrames(t *testing.T) {
	a, b := Pipe()
	receiver := NewEndpoint(b, a.LocalAddr(), 1, testConfig())
	defer receiver.Close()

	ack := make([]byte, MaxFrameSize)
	for i, frames := range []uint32{1 << 16, 1<<31 - 1} {
		id := uint32(1000 + i)
		pkt := AppendFrame(nil, &Frame{
			Type: FrameData, AckReq: true, Session: 1, Message: id,
			Aux: frames, Payload: make([]byte, MaxPayloadSize),
		})
		a.SetReadDeadline(time.Now().Add(5 * time.Second))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := a.WriteTo(pkt, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		// The ack the frame asked for shows the receiver has stored it.
		n, _, err := a.ReadFrom(ack)
		if err != nil {
			t.Fatalf("claim of %d frames: no ack: %v", frames, err)
		}
		runtime.ReadMemStats(&after)
		if f, err := DecodeFrame(ack[:n]); err != nil || f.Type != FrameAck || f.Message != id || f.Seq != 1 {
			t.Fatalf("claim of %d frames: ack %+v, %v", frames, f, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Fatalf("claim of %d frames allocated %d bytes on the receiver", frames, grew)
		}
	}
	// The short stream draws no ack; sendOne below requires the next
	// delivery to be the legitimate message.
	short := AppendFrame(nil, &Frame{Type: FrameData, Session: 1, Message: 2000, Aux: 1, Payload: []byte{1, 2}})
	if _, err := a.WriteTo(short, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	a.SetReadDeadline(time.Time{})

	sender := NewEndpoint(a, b.LocalAddr(), 1, testConfig())
	defer sender.Close()
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i * 11)
	}
	sendOne(t, sender, receiver, 0, body)
}

// TestUDPSocketPair runs exchanges over real kernel UDP loopback sockets
// (the deployment configuration, batched with GSO and GRO on Linux)
// rather than the in-memory pipe: messages on both sides of every burst
// boundary, the conn calls a clean 64 KiB message costs, and a batched
// endpoint talking to a per-datagram one through injected faults.
func TestUDPSocketPair(t *testing.T) {
	listen := func(t *testing.T) net.PacketConn {
		t.Helper()
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no UDP loopback: %v", err)
		}
		return c
	}
	udpPair := func(t *testing.T, cfg Config) (sender, receiver *Endpoint) {
		a, b := listen(t), listen(t)
		sender = NewEndpoint(a, b.LocalAddr(), 1, cfg)
		receiver = NewEndpoint(b, a.LocalAddr(), 1, cfg)
		t.Cleanup(func() { sender.Close(); receiver.Close() })
		return sender, receiver
	}

	t.Run("sizes", func(t *testing.T) {
		sender, receiver := udpPair(t, testConfig())
		// The stream is the body plus its 4-byte header length.
		frames := func(n int) int { return n*MaxPayloadSize - 4 }
		w := sender.cfg.Window
		for id, size := range []int{1, frames(1), frames(w - 1), frames(w), frames(w + 1), 64 << 10, 1 << 20} {
			body := make([]byte, size)
			for i := range body {
				body[i] = byte(i*7 + size)
			}
			sendOne(t, sender, receiver, uint32(id), body)
		}
	})

	t.Run("counts", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("UDP GSO and GRO are Linux socket options")
		}
		sender, receiver := udpPair(t, quietConfig(0))
		sendOne(t, sender, receiver, 0, make([]byte, 64<<10))
		// Per datagram this is 46 writes, 46 reads and 6 acks: one burst
		// per window fill, one read per burst, one ack per read.
		s, r := sender.Stats(), receiver.Stats()
		if s.DataSent != 46 || s.WriteCalls > 3 || r.ReadCalls > 3 || r.AcksSent > 2 {
			t.Fatalf("sender %+v, receiver %+v: want 46 frames in <= 3 writes, <= 3 reads, <= 2 acks", s, r)
		}
	})

	t.Run("mixed peers", func(t *testing.T) {
		// The faulty endpoint's conn is a FaultConn, so it moves one
		// datagram per call and receives the batched endpoint's GSO
		// bursts without GRO. Its faults hit its data frames on the way
		// in and its acks on the way out, so both endpoints repair holes
		// with retransmission bursts.
		a, b := listen(t), listen(t)
		fault := FaultConfig{Seed: 4242, DropRate: 0.1, DupRate: 0.1, ReorderRate: 0.1, CorruptRate: 0.1}
		batched := NewEndpoint(a, b.LocalAddr(), 1, testConfig())
		faulty := NewEndpoint(NewFaultConn(b, fault), a.LocalAddr(), 2, testConfig())
		t.Cleanup(func() { batched.Close(); faulty.Close() })

		const msgs = 8
		errs := make(chan error, 2*msgs)
		var wg sync.WaitGroup
		body := func(i int) []byte {
			p := make([]byte, 20_000+i*19_000)
			for j := range p {
				p[j] = byte(j*3 + i)
			}
			return p
		}
		for _, dir := range []struct{ from, to *Endpoint }{{batched, faulty}, {faulty, batched}} {
			for i := 0; i < msgs; i++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					if err := dir.from.Send(uint32(i), nil, body(i)); err != nil {
						errs <- fmt.Errorf("send %d: %w", i, err)
					}
				}()
				go func() {
					defer wg.Done()
					msg, err := dir.to.Recv(30 * time.Second)
					if err != nil {
						errs <- err
						return
					}
					defer msg.Release()
					if !bytes.Equal(msg.Payload, body(int(msg.ID))) {
						errs <- fmt.Errorf("message %d differs (%d payload bytes)", msg.ID, len(msg.Payload))
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestFaultConnStats pins the injector's bookkeeping: with a seeded PRNG
// the same write sequence injects the same faults.
func TestFaultConnStats(t *testing.T) {
	run := func() FaultStats {
		a, _ := Pipe()
		fc := NewFaultConn(a, FaultConfig{Seed: 99, DropRate: 0.3, DupRate: 0.2, ReorderRate: 0.1, CorruptRate: 0.2})
		pkt := AppendFrame(nil, &Frame{Type: FrameData, Aux: 1})
		for i := 0; i < 200; i++ {
			if _, err := fc.WriteTo(pkt, nil); err != nil {
				t.Fatal(err)
			}
		}
		return fc.Stats()
	}
	first := run()
	if first.Dropped == 0 || first.Duplicate == 0 || first.Reordered == 0 || first.Corrupted == 0 {
		t.Fatalf("faults not exercised: %+v", first)
	}
	if second := run(); second != first {
		t.Fatalf("seeded injection not deterministic: %+v vs %+v", second, first)
	}
}

// TestSendToFanOut pins the server-side demux contract: one endpoint on a
// shared socket receives from many peers whose message ids collide
// (distinct session ids keep them apart), and answers each with SendTo —
// the response tagged with the requester's session and addressed to its
// observed source. Every client must get exactly its own response.
func TestSendToFanOut(t *testing.T) {
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	srv := NewEndpoint(srvConn, nil, 0, testConfig())
	defer srv.Close()

	const clients = 8
	done := make(chan error, 1)
	go func() {
		for i := 0; i < clients; i++ {
			msg, err := srv.Recv(10 * time.Second)
			if err != nil {
				done <- err
				return
			}
			reply := fmt.Sprintf("reply-to-%d", msg.Session)
			err = srv.SendTo(msg.From, msg.Session, msg.ID, []byte("resp"), []byte(reply))
			msg.Release()
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(session uint32) {
			defer wg.Done()
			conn, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				errs <- err
				return
			}
			ep := NewEndpoint(conn, srvConn.LocalAddr(), session, testConfig())
			defer ep.Close()
			// Every client uses the SAME message id: only the session id
			// separates them at the server.
			if err := ep.Send(7, []byte("req"), []byte("ping")); err != nil {
				errs <- err
				return
			}
			resp, err := ep.Recv(10 * time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Release()
			want := fmt.Sprintf("reply-to-%d", session)
			if resp.Session != session || string(resp.Payload) != want {
				errs <- fmt.Errorf("session %d got session=%d payload=%q, want %q",
					session, resp.Session, resp.Payload, want)
				return
			}
			errs <- nil
		}(uint32(c))
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}
