package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/transport"
)

// Config tunes a Server. The zero value selects the defaults.
type Config struct {
	// Transport configures the wire endpoint (both peers must agree on
	// MaxPayload).
	Transport transport.Config
	// Backend executes every session's posted messages; nil selects
	// MemBackend (host memory with cost-model timing — the cheap choice
	// for a daemon holding thousands of sessions). Backends are shared
	// across sessions, so an io.Closer backend is NOT closed per
	// session; the Server leaves its lifetime to the caller.
	Backend core.Backend
	// MaxSessions caps concurrently open sessions (default 4096);
	// opens beyond it are rejected with StatusSessionLimit.
	MaxSessions int
	// MaxHandles caps live committed handles per session (default 64);
	// commits beyond it are rejected with StatusHandleLimit.
	MaxHandles int
	// ByteBudget caps a session's pending bytes between flushes —
	// packed stream plus receive footprint per post/send (default
	// 64 MiB); posts beyond it are rejected with StatusByteBudget.
	ByteBudget int64
	// IdleTimeout reaps sessions with no request activity (default
	// 2 min; requests on a reaped session get StatusUnknownSession).
	IdleTimeout time.Duration
	// QueueDepth bounds each session's request queue (default 64);
	// overflow is rejected with StatusBusy instead of blocking the
	// dispatcher.
	QueueDepth int
	// Logf, when non-nil, receives per-request diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Backend == nil {
		c.Backend = core.MemBackend{}
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxHandles <= 0 {
		c.MaxHandles = 64
	}
	if c.ByteBudget <= 0 {
		c.ByteBudget = 64 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Stats counts the daemon's activity; read it with Server.Stats.
type Stats struct {
	Open       int   // sessions currently open
	Opened     int64 // sessions ever opened
	Closed     int64 // sessions closed by request
	Reaped     int64 // sessions closed by the idle reaper
	Requests   int64 // requests dispatched
	Rejections int64 // typed rejections returned
	// HeldPosts is the number of posts whose packed stream the daemon
	// holds in a transport buffer: posted, not yet flushed or dropped.
	HeldPosts int64
	// Transport is the daemon socket's wire counters: frames, acks and
	// the conn calls that carried them.
	Transport transport.Stats
	// Caches is the shared caches' hits, misses and evictions: the
	// commit intern table and the offload build artifacts.
	Caches core.SharedCacheStats
}

// Server is the spinsimd daemon: one transport endpoint demultiplexing
// request messages by wire session id onto per-peer core.Sessions. Each
// session's requests are served in order by its own worker; responses
// travel back with SendTo, addressed to the request's observed source.
type Server struct {
	cfg Config
	ep  *transport.Endpoint
	// caches is the offload build-cache set every peer session shares:
	// commits are interned by encoding, so a type committed by one peer
	// is template-cached for all of them, and their posts draw pooled
	// instances instead of rebuilding.
	caches *core.SharedCaches

	mu       sync.Mutex
	sessions map[uint32]*peerSession
	closed   bool

	wg    sync.WaitGroup
	stats struct {
		opened, closed, reaped, requests, rejections, heldPosts atomic.Int64
	}
}

// request is one queued unit of session work.
type request struct {
	req  *Request
	id   uint32 // wire message id; the response echoes it
	from net.Addr
}

// peerSession is one peer's server-side state.
type peerSession struct {
	id    uint32
	sess  *core.Session
	ep    *core.Endpoint
	queue chan request
	stop  chan struct{} // closed by the reaper / server shutdown

	// Worker-owned state (no locking: one worker per session).
	handles    map[uint32]*core.TypeHandle
	byKey      map[string]uint32 // commit-dedup: strategy+encoding -> handle
	keyOf      map[uint32]string
	nextHandle uint32 // last issued handle id; ids are issued in order
	futures    []pendingFuture
	nextFuture uint32
	pending    int64 // bytes accounted against Config.ByteBudget
	// held are the transport messages whose buffers the unflushed posts'
	// streams alias; the next flush releases them.
	held []*transport.Message

	lastActive time.Time // guarded by Server.mu
}

// pendingFuture is one posted-but-unflushed message.
type pendingFuture struct {
	id   uint32
	recv *core.Future
	send *core.SendFuture
}

// New wraps conn in a Server and starts serving. The server owns conn
// (via its transport endpoint) and releases it on Close.
func New(conn net.PacketConn, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		ep:       transport.NewEndpoint(conn, nil, 0, cfg.Transport),
		caches:   core.NewSharedCaches(),
		sessions: make(map[uint32]*peerSession),
	}
	s.wg.Add(2)
	go s.dispatchLoop()
	go s.reapLoop()
	return s
}

// Addr returns the server socket's local address.
func (s *Server) Addr() net.Addr { return s.ep.LocalAddr() }

// Stats returns a snapshot of the daemon's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	open := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Open:       open,
		Opened:     s.stats.opened.Load(),
		Closed:     s.stats.closed.Load(),
		Reaped:     s.stats.reaped.Load(),
		Requests:   s.stats.requests.Load(),
		Rejections: s.stats.rejections.Load(),
		HeldPosts:  s.stats.heldPosts.Load(),
		Transport:  s.ep.Stats(),
		Caches:     s.caches.Stats(),
	}
}

// Close shuts the daemon down: the socket closes, every open session is
// released, and all workers drain. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for id, p := range s.sessions {
		close(p.stop)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	s.ep.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// dispatchLoop is the accept loop: it decodes each inbound request and
// routes it to its session's worker. It never blocks on a response
// send — typed rejections for sessionless requests go out on their own
// goroutines, everything else through the per-session queue.
//
// A post's stream stays in the message it arrived in: the request takes
// the message over (hold), and whoever drops or finishes the request
// releases it. Every other request keeps nothing of its message.
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	for {
		msg, err := s.ep.Recv(0)
		if err != nil {
			return // endpoint closed
		}
		s.stats.requests.Add(1)
		req, derr := DecodeRequest(msg.Hdr, msg.Payload)
		session, id, from := msg.Session, msg.ID, msg.From
		if derr == nil && req.Packed != nil {
			s.hold(req, msg)
		} else {
			msg.Release()
		}
		if derr != nil {
			s.rejectAsync(session, id, from, 0, StatusBadRequest, derr.Error())
			continue
		}
		if req.Kind == ReqStats {
			st := s.Stats()
			s.respondAsync(session, id, from, &Response{Kind: ReqStats, Value: uint32(st.Open)})
			continue
		}
		s.route(session, id, from, req)
	}
}

// hold makes req the owner of msg, the message its Packed stream
// aliases.
func (s *Server) hold(req *Request, msg transport.Message) {
	req.msg = &msg
	s.stats.heldPosts.Add(1)
}

// release returns the transport buffer a request holds, if any.
func (s *Server) release(req *Request) {
	if req.msg != nil {
		s.releaseMsg(req.msg)
		req.msg = nil
	}
}

// releaseMsg returns one held post's transport buffer to its pool.
func (s *Server) releaseMsg(m *transport.Message) {
	m.Release()
	s.stats.heldPosts.Add(-1)
}

// route hands one decoded request to its session, creating the session
// on ReqOpen. The enqueue happens under s.mu, so a request either reaches
// a session still in the routing table, whose worker's final drain will
// see it, or is rejected here: once a close, reap or shutdown has taken
// the session out, nothing lands in its queue. The enqueue never blocks,
// so the lock is never held across a wait.
func (s *Server) route(session, id uint32, from net.Addr, req *Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.sessions[session]
	if req.Kind == ReqOpen {
		switch {
		case session == 0:
			s.rejectReq(session, id, from, req, StatusBadRequest, "session id 0 is reserved for the server")
			return
		case p != nil:
			s.rejectReq(session, id, from, req, StatusBadRequest, "session already open")
			return
		case len(s.sessions) >= s.cfg.MaxSessions:
			s.rejectReq(session, id, from, req, StatusSessionLimit,
				fmt.Sprintf("%d sessions open", s.cfg.MaxSessions))
			return
		case s.closed:
			s.release(req)
			return
		}
		sc := core.NewSessionConfig()
		sc.Backend = s.cfg.Backend
		sc.Caches = s.caches
		sess := core.NewSession(sc)
		p = &peerSession{
			id:      session,
			sess:    sess,
			ep:      sess.Endpoint(core.EndpointConfig{}),
			queue:   make(chan request, s.cfg.QueueDepth),
			stop:    make(chan struct{}),
			handles: make(map[uint32]*core.TypeHandle),
			byKey:   make(map[string]uint32),
			keyOf:   make(map[uint32]string),
		}
		s.sessions[session] = p
		s.stats.opened.Add(1)
		s.wg.Add(1)
		go s.serveSession(p)
	}
	if p == nil {
		s.rejectReq(session, id, from, req, StatusUnknownSession, "")
		return
	}
	p.lastActive = time.Now()
	select {
	case p.queue <- request{req: req, id: id, from: from}:
	default:
		s.rejectReq(session, id, from, req, StatusBusy,
			fmt.Sprintf("%d requests queued", cap(p.queue)))
	}
}

// rejectReq drops a decoded request: its held buffer goes back, and the
// client gets the typed rejection.
func (s *Server) rejectReq(session, id uint32, from net.Addr, req *Request, st Status, detail string) {
	s.release(req)
	s.rejectAsync(session, id, from, req.Kind, st, detail)
}

// rejectAsync sends a typed rejection without blocking the dispatcher.
func (s *Server) rejectAsync(session, id uint32, from net.Addr, kind uint8, st Status, detail string) {
	s.stats.rejections.Add(1)
	s.respondAsync(session, id, from, &Response{Kind: kind, Status: st, Detail: detail})
}

func (s *Server) respondAsync(session, id uint32, from net.Addr, resp *Response) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.send(session, id, from, resp)
	}()
}

// send transmits one response; transport errors are logged, not fatal —
// an unreachable client times out on its own.
func (s *Server) send(session, id uint32, from net.Addr, resp *Response) {
	hdr, payload := EncodeResponse(resp)
	if err := s.ep.SendTo(from, session, id, hdr, payload); err != nil && !errors.Is(err, transport.ErrClosed) {
		s.logf("server: session %d: response %d (%s): %v", session, id, resp.Status, err)
	}
}

// serveSession is one session's worker: it serves queued requests in
// order until the session closes, is reaped, or the server shuts down.
// It owns each request from dequeue on: a post that handle kept moves
// its message to p.held, and any other request's held buffer is
// released as soon as handle returns.
func (s *Server) serveSession(p *peerSession) {
	defer s.wg.Done()
	defer p.sess.Close()
	defer s.drain(p)
	for {
		select {
		case <-p.stop:
			return
		case r := <-p.queue:
			resp := s.handle(p, r.req)
			s.release(r.req)
			if resp.Status != StatusOK {
				s.stats.rejections.Add(1)
			}
			s.send(p.id, r.id, r.from, resp)
			if r.req.Kind == ReqClose && resp.Status == StatusOK {
				return
			}
		}
	}
}

// drain runs as a session's worker exits. Every exit path (close, reap,
// shutdown) has already taken the session out of the routing table, and
// route enqueues under the same lock, so the queue holds every request
// that will ever reach the session. The streams of posts never flushed go
// back, and each queued request is released and answered with
// StatusUnknownSession, as it would have been had it arrived a moment
// later.
func (s *Server) drain(p *peerSession) {
	for _, m := range p.held {
		s.releaseMsg(m)
	}
	p.held = nil
	for {
		select {
		case r := <-p.queue:
			s.release(r.req)
			s.stats.rejections.Add(1)
			s.send(p.id, r.id, r.from, &Response{Kind: r.req.Kind, Status: StatusUnknownSession})
		default:
			return
		}
	}
}

// detach removes the session from the routing table; later requests get
// StatusUnknownSession.
func (s *Server) detach(p *peerSession) {
	s.mu.Lock()
	if s.sessions[p.id] == p {
		delete(s.sessions, p.id)
	}
	s.mu.Unlock()
}

// handle serves one request on the session worker.
func (s *Server) handle(p *peerSession, req *Request) *Response {
	resp := &Response{Kind: req.Kind}
	switch req.Kind {
	case ReqOpen:
		resp.Value = p.id

	case ReqCommit:
		strategy := core.Strategy(req.Strategy)
		if req.Strategy != StrategyAuto && int(req.Strategy) >= len(core.OffloadStrategies) {
			resp.Status = StatusBadRequest
			resp.Detail = fmt.Sprintf("strategy byte %d is not an offloaded strategy", req.Strategy)
			return resp
		}
		// A seen encoding yields the type an earlier commit built, so
		// its offload artifacts are cache hits; the fresh decode is
		// dropped.
		typ := s.caches.Intern(req.RawType, req.Type)
		if req.Strategy == StrategyAuto {
			strategy = core.SelectStrategy(typ)
		}
		// The duplicate check precedes the limit check: a re-commit
		// would not consume a handle slot, so it is flagged as the
		// client bug it is even on a full session.
		key := string(append([]byte{uint8(strategy)}, req.RawType...))
		if id, dup := p.byKey[key]; dup {
			resp.Status = StatusDuplicateCommit
			resp.Detail = fmt.Sprintf("committed as handle %d", id)
			return resp
		}
		if live := len(p.handles); live >= s.cfg.MaxHandles {
			resp.Status = StatusHandleLimit
			resp.Detail = fmt.Sprintf("%d handles committed", live)
			return resp
		}
		h, err := p.sess.CommitAs(typ, strategy)
		if err != nil {
			resp.Status = StatusBadRequest
			resp.Detail = err.Error()
			return resp
		}
		p.nextHandle++
		p.handles[p.nextHandle] = h
		p.byKey[key] = p.nextHandle
		p.keyOf[p.nextHandle] = key
		resp.Value = p.nextHandle

	case ReqPost, ReqSend:
		h, st, detail := p.lookup(req.Handle)
		if st != StatusOK {
			resp.Status, resp.Detail = st, detail
			return resp
		}
		count := int(req.Count)
		if count <= 0 {
			resp.Status = StatusBadRequest
			resp.Detail = fmt.Sprintf("count %d", count)
			return resp
		}
		typ := h.Type()
		cost := typ.Size() * int64(count)
		if _, hi := typ.Footprint(count); hi > 0 {
			cost += hi
		}
		if p.pending+cost > s.cfg.ByteBudget {
			resp.Status = StatusByteBudget
			resp.Detail = fmt.Sprintf("%d pending + %d requested > %d budget", p.pending, cost, s.cfg.ByteBudget)
			return resp
		}
		var pf pendingFuture
		var err error
		if req.Kind == ReqPost {
			pf.recv, err = p.ep.Post(h, count, core.PostOpts{Seed: req.Seed, Packed: req.Packed})
		} else {
			pf.send, err = p.ep.Send(h, count, core.SendOpts{Seed: req.Seed})
		}
		if err != nil {
			resp.Status = StatusBadRequest
			resp.Detail = err.Error()
			return resp
		}
		p.pending += cost
		p.nextFuture++
		pf.id = p.nextFuture
		p.futures = append(p.futures, pf)
		resp.Value = pf.id
		if req.msg != nil {
			// The post reads its stream in place at the flush.
			p.held = append(p.held, req.msg)
			req.msg = nil
		}

	case ReqFlush:
		p.ep.Flush() // per-message status comes from each future
		resp.Futures = make([]FutureStatus, len(p.futures))
		for i, pf := range p.futures {
			resp.Futures[i] = pf.status()
		}
		p.futures = nil
		p.pending = 0
		// Every post has been scattered and verified: nothing reads the
		// streams any more.
		for i, m := range p.held {
			s.releaseMsg(m)
			p.held[i] = nil
		}
		p.held = p.held[:0]

	case ReqFree:
		h, st, detail := p.lookup(req.Handle)
		if st != StatusOK {
			resp.Status, resp.Detail = st, detail
			return resp
		}
		h.Free()
		delete(p.handles, req.Handle)
		delete(p.byKey, p.keyOf[req.Handle])
		delete(p.keyOf, req.Handle)

	case ReqClose:
		s.detach(p)
		s.stats.closed.Add(1)
		// The deferred sess.Close in serveSession frees the handles.

	default:
		resp.Status = StatusBadRequest
		resp.Detail = fmt.Sprintf("kind %d is not servable", req.Kind)
	}
	return resp
}

// lookup resolves a handle id to its committed handle. Ids are issued in
// order, so an id in (0, nextHandle] that is not live was freed.
func (p *peerSession) lookup(id uint32) (*core.TypeHandle, Status, string) {
	if h, ok := p.handles[id]; ok {
		return h, StatusOK, ""
	}
	if id != 0 && id <= p.nextHandle {
		return nil, StatusFreedHandle, fmt.Sprintf("handle %d", id)
	}
	return nil, StatusUnknownHandle, fmt.Sprintf("handle %d", id)
}

// status resolves one flushed future into its wire record.
func (pf pendingFuture) status() FutureStatus {
	rec := FutureStatus{ID: pf.id}
	var err error
	if pf.recv != nil {
		var res core.Result
		res, err = pf.recv.Wait()
		rec.Verified = res.Verified
		rec.Bytes = uint64(res.MsgBytes)
	} else {
		var res core.SendReport
		res, err = pf.send.Wait()
		rec.Verified = res.Verified
		rec.Bytes = uint64(res.MsgBytes)
	}
	switch {
	case err == nil:
		rec.Status = StatusOK
	case errors.Is(err, core.ErrTimeout):
		rec.Status = StatusMsgTimeout
	default:
		rec.Status = StatusMsgFailed
	}
	return rec
}

// reapLoop closes sessions idle past Config.IdleTimeout.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(max(s.cfg.IdleTimeout/4, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-s.ep.Closed():
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout)
		s.mu.Lock()
		var reaped []*peerSession
		for id, p := range s.sessions {
			if p.lastActive.Before(cutoff) {
				delete(s.sessions, id)
				reaped = append(reaped, p)
			}
		}
		s.mu.Unlock()
		for _, p := range reaped {
			s.stats.reaped.Add(1)
			s.logf("server: session %d reaped after %v idle", p.id, s.cfg.IdleTimeout)
			close(p.stop)
		}
	}
}
