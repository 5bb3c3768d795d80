package server_test

import (
	"sync"
	"testing"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/server"
	"spinddt/internal/transport"
)

// gateBackend is MemBackend whose Exchange reports that it started and
// then waits for the gate to open, so a test can hold a session's worker
// mid-request while more requests queue behind it.
type gateBackend struct {
	core.MemBackend
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newGate() *gateBackend {
	return &gateBackend{entered: make(chan struct{}, 4), gate: make(chan struct{})}
}

func (b *gateBackend) Exchange(env core.BackendEnv, sends []core.BackendSend, msgs []core.BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	b.entered <- struct{}{}
	<-b.gate
	return b.MemBackend.Exchange(env, sends, msgs)
}

// open lets every held and later flush through.
func (b *gateBackend) open() { b.once.Do(func() { close(b.gate) }) }

// newGatedClient starts a daemon on a gateBackend. The gate opens at
// cleanup before the daemon closes, so a failed step cannot leave a
// worker parked in a flush that Close would wait for.
func newGatedClient(t *testing.T, cfg server.Config) (*rawClient, *gateBackend) {
	gb := newGate()
	cfg.Backend = gb
	c := newRawClient(t, cfg)
	t.Cleanup(gb.open)
	return c, gb
}

// rawClient drives the daemon over an in-memory pipe with raw request
// messages, so several requests of one session can be in flight at once.
type rawClient struct {
	t      *testing.T
	srv    *server.Server
	ep     *transport.Endpoint
	nextID uint32
	resps  map[uint32]*server.Response
}

func newRawClient(t *testing.T, cfg server.Config) *rawClient {
	t.Helper()
	srvConn, cliConn := transport.Pipe()
	srv := server.New(srvConn, cfg)
	ep := transport.NewEndpoint(cliConn, srvConn.LocalAddr(), 0, transport.Config{})
	t.Cleanup(func() {
		ep.Close()
		srv.Close()
	})
	return &rawClient{t: t, srv: srv, ep: ep, resps: map[uint32]*server.Response{}}
}

// send transmits one request on the session and returns its message id
// without waiting for the response.
func (c *rawClient) send(session uint32, req *server.Request) uint32 {
	c.t.Helper()
	c.nextID++
	hdr, payload := server.EncodeRequest(req)
	if err := c.ep.SendTo(c.srv.Addr(), session, c.nextID, hdr, payload); err != nil {
		c.t.Fatal(err)
	}
	return c.nextID
}

// await returns the response to message id, holding on to the others it
// reads meanwhile.
func (c *rawClient) await(id uint32) *server.Response {
	c.t.Helper()
	for c.resps[id] == nil {
		msg, err := c.ep.Recv(10 * time.Second)
		if err != nil {
			c.t.Fatalf("awaiting response %d: %v", id, err)
		}
		resp, err := server.DecodeResponse(msg.Hdr, msg.Payload)
		msg.Release()
		if err != nil {
			c.t.Fatal(err)
		}
		c.resps[msg.ID] = resp
	}
	return c.resps[id]
}

// do sends one request and waits for its response, which must carry want.
func (c *rawClient) do(session uint32, req *server.Request, want server.Status) *server.Response {
	c.t.Helper()
	resp := c.await(c.send(session, req))
	if resp.Status != want {
		c.t.Fatalf("request kind %d: status %v (%s), want %v", req.Kind, resp.Status, resp.Detail, want)
	}
	return resp
}

// held asserts the daemon's held-post gauge.
func (c *rawClient) held(want int64) {
	c.t.Helper()
	if got := c.srv.Stats().HeldPosts; got != want {
		c.t.Fatalf("HeldPosts = %d, want %d", got, want)
	}
}

// ownType is the datatype every ownership scenario posts: 4 KiB packed.
var ownType = ddt.MustVector(64, 16, 48, ddt.Int)

// stream returns a count-element packed stream of ownType.
func stream(count int) []byte {
	b := make([]byte, ownType.Size()*int64(count))
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func postPacked(h uint32, count int, packed []byte) *server.Request {
	return &server.Request{Kind: server.ReqPost, Handle: h, Count: uint32(count), Packed: packed}
}

// openCommit opens the session and commits ownType on it.
func (c *rawClient) openCommit(session uint32) uint32 {
	c.t.Helper()
	c.do(session, &server.Request{Kind: server.ReqOpen}, server.StatusOK)
	return c.do(session, &server.Request{Kind: server.ReqCommit, Strategy: uint8(core.RWCP), Type: ownType}, server.StatusOK).Value
}

// TestServerPostBufferOwnership drives every path a served post's
// transport buffer can leave the daemon by — the flush that consumes it,
// every post rejection, a full queue, an unknown session, and a session
// closed, reaped or shut down with unflushed posts and queued requests —
// and holds the HeldPosts gauge to the posts actually pending after each
// step: a buffer released early reads low, a leaked or doubly released
// one leaves the gauge off zero at the end.
func TestServerPostBufferOwnership(t *testing.T) {
	t.Run("flush and rejections", func(t *testing.T) {
		c := newRawClient(t, server.Config{MaxHandles: 2, ByteBudget: 1 << 16})
		h := c.openCommit(1)
		c.do(1, postPacked(h, 1, stream(1)), server.StatusOK)
		c.do(1, postPacked(h, 2, stream(2)), server.StatusOK)
		c.held(2)
		resp := c.do(1, &server.Request{Kind: server.ReqFlush}, server.StatusOK)
		for _, f := range resp.Futures {
			if f.Status != server.StatusOK || !f.Verified {
				t.Fatalf("flush record %+v", f)
			}
		}
		c.held(0)

		other := c.do(1, &server.Request{Kind: server.ReqCommit, Strategy: uint8(core.RWCP),
			Type: ddt.MustVector(8, 4, 8, ddt.Int)}, server.StatusOK).Value
		c.do(1, &server.Request{Kind: server.ReqFree, Handle: other}, server.StatusOK)
		c.do(1, postPacked(99, 1, stream(1)), server.StatusUnknownHandle)
		c.do(1, postPacked(other, 1, stream(1)), server.StatusFreedHandle)
		c.do(1, postPacked(h, 0, stream(1)), server.StatusBadRequest)
		c.do(1, postPacked(h, 64, stream(1)), server.StatusByteBudget)
		c.do(1, postPacked(h, 1, stream(2)), server.StatusBadRequest) // core.Post: wrong stream length
		c.do(7, postPacked(h, 1, stream(1)), server.StatusUnknownSession)
		c.held(0)
		c.do(1, &server.Request{Kind: server.ReqClose}, server.StatusOK)
		c.held(0)
	})

	t.Run("flush on the simulated NIC", func(t *testing.T) {
		// SimBackend keeps no reference to a stream once Flush returns, so
		// the served sim daemon releases the same way.
		c := newRawClient(t, server.Config{Backend: core.SimBackend{}})
		h := c.openCommit(1)
		for round := 0; round < 2; round++ {
			c.do(1, postPacked(h, 3, stream(3)), server.StatusOK)
			c.held(1)
			recs := c.do(1, &server.Request{Kind: server.ReqFlush}, server.StatusOK).Futures
			if len(recs) != 1 || recs[0].Status != server.StatusOK || !recs[0].Verified {
				t.Fatalf("round %d: flush records %+v", round, recs)
			}
			c.held(0)
		}
	})

	t.Run("busy, then close with an unflushed post and a queued request", func(t *testing.T) {
		c, gb := newGatedClient(t, server.Config{QueueDepth: 3})
		h := c.openCommit(1)
		c.do(1, postPacked(h, 1, stream(1)), server.StatusOK)
		flush := c.send(1, &server.Request{Kind: server.ReqFlush})
		<-gb.entered // the worker is inside the flush; the queue is empty
		unflushed := c.send(1, postPacked(h, 1, stream(1)))
		closing := c.send(1, &server.Request{Kind: server.ReqClose})
		queued := c.send(1, postPacked(h, 1, stream(1)))
		busy := c.send(1, postPacked(h, 1, stream(1)))
		if st := c.await(busy).Status; st != server.StatusBusy {
			t.Fatalf("post past the queue depth: %v", st)
		}
		c.held(3)
		gb.open()
		if f := c.await(flush).Futures; len(f) != 1 || !f[0].Verified {
			t.Fatalf("flush records %+v", f)
		}
		for id, want := range map[uint32]server.Status{unflushed: server.StatusOK, closing: server.StatusOK,
			queued: server.StatusUnknownSession} {
			if st := c.await(id).Status; st != want {
				t.Fatalf("request %d: status %v, want %v", id, st, want)
			}
		}
		c.held(0)
	})

	t.Run("reap with an unflushed post and a queued request", func(t *testing.T) {
		c, gb := newGatedClient(t, server.Config{IdleTimeout: 200 * time.Millisecond})
		h := c.openCommit(1)
		c.do(1, postPacked(h, 1, stream(1)), server.StatusOK)
		flush := c.send(1, &server.Request{Kind: server.ReqFlush})
		<-gb.entered
		queued := c.send(1, postPacked(h, 1, stream(1)))
		waitFor(t, c.srv, "the queued post", heldIs(2))
		waitFor(t, c.srv, "the reap", reapedIs(1))
		gb.open()
		c.await(flush)
		// The reap closed the session's stop before it was counted, so the
		// worker, leaving the flush, must refuse the queued post instead
		// of answering it and dropping it unflushed.
		if st := c.await(queued).Status; st != server.StatusUnknownSession {
			t.Fatalf("post queued behind the reap: %v, want %v", st, server.StatusUnknownSession)
		}
		waitFor(t, c.srv, "the drain", heldIs(0))

		h2 := c.openCommit(2)
		c.do(2, postPacked(h2, 1, stream(1)), server.StatusOK)
		c.held(1)
		waitFor(t, c.srv, "the second reap", reapedIs(2))
		waitFor(t, c.srv, "the second drain", heldIs(0))
	})

	t.Run("shutdown with an unflushed post and a queued request", func(t *testing.T) {
		c, gb := newGatedClient(t, server.Config{})
		h := c.openCommit(1)
		c.do(1, postPacked(h, 1, stream(1)), server.StatusOK)
		c.send(1, &server.Request{Kind: server.ReqFlush})
		<-gb.entered
		c.send(1, postPacked(h, 1, stream(1)))
		h2 := c.openCommit(2)
		c.do(2, postPacked(h2, 1, stream(1)), server.StatusOK)
		c.held(3)
		closed := make(chan struct{})
		go func() {
			c.srv.Close()
			close(closed)
		}()
		gb.open()
		<-closed
		c.held(0)
	})
}

// waitFor polls the daemon's stats until cond holds: the dispatcher
// takes a post over after its transport ack, and a reaped session's
// worker drains after the reaper has counted the reap.
func waitFor(t *testing.T, srv *server.Server, what string, cond func(server.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func heldIs(n int64) func(server.Stats) bool {
	return func(st server.Stats) bool { return st.HeldPosts == n }
}

func reapedIs(n int64) func(server.Stats) bool {
	return func(st server.Stats) bool { return st.Reaped == n }
}

// skewBackend is MemBackend with one fault in its scatter: each message's
// first region lands one byte to the right, or, with gap set, the byte
// after it (a gap of ownType) is written.
type skewBackend struct {
	core.MemBackend
	gap bool
}

func (b skewBackend) Exchange(env core.BackendEnv, sends []core.BackendSend, msgs []core.BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	sent, res, err := b.MemBackend.Exchange(env, sends, msgs)
	for _, m := range msgs {
		r := m.Type.Flatten(m.Count)[0]
		if b.gap {
			m.Dst[r.Offset+r.Size] = 1
		} else {
			copy(m.Dst[r.Offset+1:], m.Dst[r.Offset:r.Offset+r.Size])
			m.Dst[r.Offset] = 0
		}
	}
	return sent, res, err
}

// TestServerVerifyCatchesBackendSkew serves a caller-packed post and a
// seeded one on a backend that misplaces a region by a byte or writes a
// gap byte: both flush records must read StatusMsgFailed, unverified.
func TestServerVerifyCatchesBackendSkew(t *testing.T) {
	for _, gap := range []bool{false, true} {
		c := newRawClient(t, server.Config{Backend: skewBackend{gap: gap}})
		h := c.openCommit(1)
		c.do(1, postPacked(h, 2, stream(2)), server.StatusOK)
		c.do(1, &server.Request{Kind: server.ReqPost, Handle: h, Count: 2, Seed: 9}, server.StatusOK)
		recs := c.do(1, &server.Request{Kind: server.ReqFlush}, server.StatusOK).Futures
		if len(recs) != 2 {
			t.Fatalf("gap=%v: %d flush records", gap, len(recs))
		}
		for _, f := range recs {
			if f.Status != server.StatusMsgFailed || f.Verified {
				t.Errorf("gap=%v: record %+v, want msg-failed and unverified", gap, f)
			}
		}
		c.held(0)
	}
}
