// Wire modes: -serve runs the spinsimd session daemon in-process until
// the requested number of client sessions have come and gone; -send
// drives a daemon through the internal/server/client protocol — open a
// session, commit the flag-described vector, post caller-packed wire
// streams the server scatters and byte-verifies, flush, close.
// Together they move non-contiguous transfers between two processes:
//
//	spinsim -serve 127.0.0.1:7117 -sessions 1
//	spinsim -send 127.0.0.1:7117 -wiremsgs 4 -block 512 -msg 1048576
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"spinddt/internal/ddt"
	"spinddt/internal/server"
	"spinddt/internal/server/client"
	"spinddt/internal/transport"
)

// wireServeTimeout bounds how long -serve waits for its sessions.
const wireServeTimeout = 60 * time.Second

// serveWire runs the session daemon on conn until nsessions client
// sessions have closed (or been reaped), then prints the service
// summary.
func serveWire(conn net.PacketConn, nsessions int, out io.Writer) error {
	srv := server.New(conn, server.Config{})
	defer srv.Close()
	fmt.Fprintf(out, "spinsimd session server on %v, waiting for %d sessions\n", srv.Addr(), nsessions)
	deadline := time.Now().Add(wireServeTimeout)
	for {
		st := srv.Stats()
		if st.Closed+st.Reaped >= int64(nsessions) {
			fmt.Fprintf(out, "served %d sessions (%d reaped), %d requests, %d rejections\n",
				st.Closed+st.Reaped, st.Reaped, st.Requests, st.Rejections)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out with %d of %d sessions served", st.Closed+st.Reaped, nsessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendWire gathers count elements of typ from a seeded source image and
// posts nmsgs caller-packed copies to the daemon at addr on the given
// wire session, optionally through a fault-injecting wrapper that drops
// the given fraction of datagrams (the reliability layer recovers; the
// stats line shows the retransmissions). The daemon scatters each
// stream and byte-verifies it against the reference unpack; the flush
// records report the verdicts.
func sendWire(addr string, typ *ddt.Type, count, nmsgs int, session uint32, seed int64, drop float64, out io.Writer) error {
	cfg := client.Config{}
	if drop > 0 {
		cfg.Fault = &transport.FaultConfig{Seed: seed, DropRate: drop}
	}
	c, err := client.Dial(addr, session, cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Open(); err != nil {
		return fmt.Errorf("open session %d: %w", session, err)
	}
	h, err := c.CommitAuto(typ)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}

	_, hi := typ.Footprint(count)
	src := make([]byte, hi)
	rng := rand.New(rand.NewSource(seed))
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	packed := make([]byte, typ.Size()*int64(count))
	if _, err := ddt.PackInto(typ, count, src, packed); err != nil {
		return err
	}

	start := time.Now()
	for i := 0; i < nmsgs; i++ {
		if _, err := c.PostPacked(h, count, packed); err != nil {
			return fmt.Errorf("post %d: %w", i, err)
		}
	}
	recs, err := c.Flush()
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	elapsed := time.Since(start)
	for i, rec := range recs {
		fmt.Fprintf(out, "msg %-3d %s count=%d wire=%d bytes status=%v verified=%v\n",
			i, typ.Signature(), count, rec.Bytes, rec.Status, rec.Verified)
		if rec.Status != server.StatusOK || !rec.Verified {
			return fmt.Errorf("message %d: status=%v verified=%v", i, rec.Status, rec.Verified)
		}
	}
	if err := c.CloseSession(); err != nil {
		return fmt.Errorf("close session: %w", err)
	}

	st := c.Stats()
	total := int64(nmsgs) * int64(len(packed))
	fmt.Fprintf(out, "sent %d x %d bytes (%s count=%d) in %v: %.1f Mbit/s\n",
		nmsgs, len(packed), typ.Signature(), count, elapsed.Round(time.Millisecond),
		float64(total*8)/elapsed.Seconds()/1e6)
	fmt.Fprintf(out, "transport: %d data frames, %d retransmitted, %d acks received; %d write and %d read calls\n",
		st.DataSent, st.Retransmits, st.AcksReceived, st.WriteCalls, st.ReadCalls)
	return nil
}
