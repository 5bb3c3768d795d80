package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// ErrSessionClosed reports a commit or post on a Session after Close.
var ErrSessionClosed = errors.New("core: session is closed")

// SessionConfig configures a Session: the device and cost models shared by
// every commit and post, and the backend the posted messages execute on.
type SessionConfig struct {
	NIC  nic.Config
	Cost CostModel
	Host hostcpu.Config
	// Epsilon is the checkpoint heuristic tolerance (paper: 0.2).
	Epsilon float64
	// Backend executes posted messages; nil selects SimBackend.
	Backend Backend
	// Caches, when non-nil, is a cache set shared with other sessions:
	// every session pointing at the same SharedCaches instantiates from the
	// same offload templates and pools (the server wires its per-peer
	// sessions this way). Nil gives the session a private set.
	Caches *SharedCaches
}

// SharedCaches is an offload build-cache set that outlives any one session.
// Hand the same SharedCaches to several SessionConfigs and their sessions
// share compiled dataloops, checkpoint sets, specialized handlers, offload
// templates and instance pools — a type committed by one peer's session is
// instantiate-only for every other peer. Its intern table (Intern) gives
// a decoded datatype an identity, its wire encoding, so a re-commit of an
// encoding the set has seen reaches the caches as the same committed type
// and hits instead of rebuilding. Every cache is bounded and evicts its
// cold entries, so a long-lived daemon keeps hitting on its current
// working set at bounded memory. Safe for concurrent use.
type SharedCaches struct {
	caches offloadCaches
}

// NewSharedCaches returns an empty shared cache set.
func NewSharedCaches() *SharedCaches { return &SharedCaches{} }

// Intern returns the committed type the set holds for the datatype
// encoding enc. When it holds none, it commits t, which must be enc's
// decode, holds it and returns it. Equal encodings always decode to equal
// types, so the returned type is interchangeable with t; callers commit
// the returned one and drop t.
func (sc *SharedCaches) Intern(enc []byte, t *ddt.Type) *ddt.Type {
	return sc.caches.intern(enc, t)
}

// SharedCacheStats counts the lookups of a SharedCaches.
type SharedCacheStats struct {
	// Types is the intern table; Artifacts the build caches (dataloops,
	// checkpoint sets, specialized builds, offload templates, region
	// lists and host prices).
	Types, Artifacts CacheStats
}

// Stats returns the hit, miss and eviction counts of the set's caches.
func (sc *SharedCaches) Stats() SharedCacheStats {
	return SharedCacheStats{
		Types:     sc.caches.types.snapshot(),
		Artifacts: sc.caches.artifacts.snapshot(),
	}
}

// NewSessionConfig returns the paper's default session configuration.
func NewSessionConfig() SessionConfig {
	return SessionConfig{
		NIC:     nic.DefaultConfig(),
		Cost:    DefaultCostModel(),
		Host:    hostcpu.DefaultConfig(),
		Epsilon: 0.2,
	}
}

// Session owns a Backend plus the offload build caches every TypeHandle
// committed on it shares. It is the library-lifetime object an MPI
// implementation would hold: types are committed once (Commit), receives
// are posted against endpoints many times, and the expensive offload state
// — lowered plans, dataloops, checkpoint sets, specialized
// handlers — is built exactly once per committed handle and amortized
// across every post (the paper's Fig. 18 reuse argument as an API).
// Sessions are safe for concurrent use.
type Session struct {
	cfg     SessionConfig
	backend Backend
	caches  *offloadCaches

	mu         sync.Mutex
	handles    map[handleID]*TypeHandle
	busyTraces map[*nic.Trace]struct{} // traces of in-flight flushes
	closed     bool
}

type handleID struct {
	typ      *ddt.Type
	strategy Strategy
}

// NewSession returns a Session with its own cache set. Traces are
// per-endpoint (EndpointConfig.Trace): a session-level NIC trace would be
// appended to by every endpoint's flush, and endpoints flush concurrently.
func NewSession(cfg SessionConfig) *Session {
	if cfg.NIC.Trace != nil {
		panic("core: SessionConfig.NIC.Trace is not supported; attach one Trace per endpoint (EndpointConfig.Trace)")
	}
	b := cfg.Backend
	if b == nil {
		b = SimBackend{}
	}
	caches := &offloadCaches{}
	if cfg.Caches != nil {
		caches = &cfg.Caches.caches
	}
	return &Session{
		cfg:     cfg,
		backend: b,
		caches:  caches,
		handles: make(map[handleID]*TypeHandle),
	}
}

// oneShot is the private session behind the package-level Run, RunSend and
// RunTransfer wrappers: the simulated backend against the shared default
// caches, exactly the state those functions used before sessions existed.
var oneShot = &Session{
	backend: SimBackend{},
	caches:  &defaultCaches,
	handles: make(map[handleID]*TypeHandle),
}

// Backend returns the session's backend.
func (s *Session) Backend() Backend { return s.backend }

// SelectStrategy picks the receive strategy an MPI library would commit
// the datatype with (Sec. 3.2.6): vector-like layouts (after
// normalization) take the O(1)-state specialized handler, everything else
// takes RW-CP, the paper's best general strategy.
func SelectStrategy(t *ddt.Type) Strategy {
	switch ddt.Normalize(t).Kind() {
	case ddt.KindVector, ddt.KindHVector, ddt.KindElementary, ddt.KindContiguous:
		return Specialized
	}
	return RWCP
}

// Commit commits the datatype on the session with the auto-selected
// strategy (SelectStrategy) and returns its handle. Committing the same
// type twice returns the same handle.
func (s *Session) Commit(t *ddt.Type) (*TypeHandle, error) {
	return s.CommitAs(t, SelectStrategy(t))
}

// CommitAs commits the datatype with an explicit strategy. The commit
// lowers the type's plan; the per-count offload state
// (handlers, checkpoint sets, offset lists) is built exactly once on first
// use and shared by every subsequent post of the handle. Commit is
// concurrency-safe and idempotent per (type, strategy).
func (s *Session) CommitAs(t *ddt.Type, strategy Strategy) (*TypeHandle, error) {
	if t == nil || t.Size() <= 0 {
		return nil, fmt.Errorf("core: cannot commit an empty datatype")
	}
	t.Commit() // lowers the plan (idempotent)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	id := handleID{typ: t, strategy: strategy}
	if h, ok := s.handles[id]; ok {
		return h, nil
	}
	h := &TypeHandle{sess: s, typ: t, strategy: strategy}
	s.handles[id] = h
	s.caches.counters.notePlan(t.Plan())
	return h, nil
}

// Endpoint returns a new endpoint of the session: one simulated NIC
// receiving the messages posted to it. A Trace is unsynchronized, so one
// Trace must not feed two concurrent simulations (the same rule
// nic.ReceiveCluster enforces); concurrent flushes within one session
// detect that and panic. Sequential reuse of a Trace across endpoints is
// fine. Sharing a Trace across sessions, or with a concurrent one-shot
// Run's req.NIC.Trace, is not detected — keep traces session-local.
func (s *Session) Endpoint(cfg EndpointConfig) *Endpoint {
	ni := portals.NewNI(1)
	pt, err := ni.PT(0)
	if err != nil {
		panic(err) // NI with one PT cannot fail
	}
	return &Endpoint{sess: s, cfg: cfg, pt: pt, nextBits: 1}
}

// acquireTrace marks the trace as owned by an in-flight flush; the
// returned release restores it. Two concurrent flushes feeding one
// unsynchronized Trace would race on its event slice, so that is a
// programmer error worth a loud stop.
func (s *Session) acquireTrace(tr *nic.Trace) (release func()) {
	if tr == nil {
		return func() {}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.busyTraces[tr]; busy {
		panic("core: one nic.Trace flushed from two endpoints concurrently; endpoints need distinct traces")
	}
	if s.busyTraces == nil {
		s.busyTraces = make(map[*nic.Trace]struct{})
	}
	s.busyTraces[tr] = struct{}{}
	return func() {
		s.mu.Lock()
		delete(s.busyTraces, tr)
		s.mu.Unlock()
	}
}

// Close frees every handle committed on the session. Committing or
// posting on a closed session fails with ErrSessionClosed;
// already-flushed results stay valid. The backend is left to whoever
// configured it: Close does not close it. Close is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, h := range s.handles {
		h.markFreed()
		delete(s.handles, id)
	}
}

// isClosed reports whether Close has been called.
func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// TypeHandle is a committed datatype bound to a session and a strategy —
// what MPI_Type_commit returns in a library built on this API. The
// handle's offload state is built once per element count and reused by
// every post of that count while the count stays among the handle's
// recent ones; Free releases the handle (the session drops it and further
// posts fail).
type TypeHandle struct {
	sess     *Session
	typ      *ddt.Type
	strategy Strategy

	// builds holds the handle's built state for at most
	// handleBuildBudget counts: a count evicted by newer ones is rebuilt
	// through the shared caches and, as a fresh build, reports its host
	// prep again.
	builds clockCache[int, *countBuilds]

	mu    sync.Mutex
	freed bool
}

// handleBuildBudget bounds the counts a handle keeps built. A client
// posting one handle at ever new counts would otherwise hold one built
// template per count for the handle's whole life.
const handleBuildBudget = 32

// countBuilds is a handle's state for one count: the receive-side
// offload build and the sender-side gather build, each built on its
// direction's first use.
type countBuilds struct {
	rx handleBuild
	tx txBuild
}

// handleBuild is the once-built offload state of one (handle, count).
type handleBuild struct {
	once     sync.Once
	err      error
	template *Offload
	// posted flips on the first flushed post: Fig. 18 semantics — the
	// first post pays the host preparation, subsequent posts report zero.
	posted atomic.Bool
}

// Type returns the committed datatype.
func (h *TypeHandle) Type() *ddt.Type { return h.typ }

// Strategy returns the strategy the handle was committed with.
func (h *TypeHandle) Strategy() Strategy { return h.strategy }

// Free releases the handle: the session forgets it and subsequent posts
// fail. The underlying caches keep the type's immutable artifacts until
// they go cold and are evicted, so a later re-commit of the same type —
// or, through SharedCaches.Intern, of the same encoding — hits them
// instead of rebuilding. Free is idempotent, and a stale Free never
// evicts a live handle from a later re-commit.
func (h *TypeHandle) Free() {
	s := h.sess
	id := handleID{typ: h.typ, strategy: h.strategy}
	s.mu.Lock()
	if s.handles[id] == h {
		delete(s.handles, id)
	}
	s.mu.Unlock()
	h.markFreed()
}

func (h *TypeHandle) markFreed() {
	h.mu.Lock()
	h.freed = true
	h.mu.Unlock()
}

// builtFor returns the handle's state for count elements, adding it on
// first use. Concurrent calls for the same count share one state, unless
// the count is evicted in between.
func (h *TypeHandle) builtFor(count int) (*countBuilds, error) {
	h.mu.Lock()
	freed := h.freed
	h.mu.Unlock()
	if freed {
		return nil, fmt.Errorf("core: %v handle for %s is freed", h.strategy, h.typ.Name())
	}
	cb, ok := h.builds.get(count)
	if !ok {
		cb = h.builds.put(count, new(countBuilds), 1, handleBuildBudget)
	}
	return cb, nil
}

// build returns the once-built offload state for count elements, building
// it on first use.
func (h *TypeHandle) build(count int) (*handleBuild, error) {
	cb, err := h.builtFor(count)
	if err != nil {
		return nil, err
	}
	b := &cb.rx
	b.once.Do(func() {
		b.template, b.err = h.sess.caches.buildOffload(h.strategy, BuildParams{
			Type: h.typ, Count: count,
			NIC: h.sess.cfg.NIC, Cost: h.sess.cfg.Cost, Host: h.sess.cfg.Host,
			Epsilon: h.sess.cfg.Epsilon,
		})
	})
	if b.err != nil {
		return nil, b.err
	}
	return b, nil
}

// instantiate returns the execution context for one posted message. The
// specialized handlers are stateless after construction, so the template
// instance is shared by every post; the general strategies carry mutable
// per-message working state (progressing checkpoints, per-vHPU segments)
// and draw a pooled instance from the build's template.
func (h *TypeHandle) instantiate(b *handleBuild) (*Offload, error) {
	if h.strategy == Specialized {
		return b.template, nil
	}
	return b.template.Instantiate()
}

// EndpointConfig configures one endpoint.
type EndpointConfig struct {
	// Trace, when non-nil, collects the endpoint's NIC pipeline events.
	// One Trace must not be flushed from two endpoints concurrently
	// (detected; panics); sequential reuse is fine.
	Trace *nic.Trace
}

// Endpoint is one NIC of a session, with both halves of the symmetric
// device model. On the receive side, Post accumulates messages and Flush
// (or the first Future.Wait) runs every pending one through the backend in
// a single inbound residency pass, so the messages of a real exchange —
// alltoall, halo — contend for the endpoint's inbound parser, HPUs, DMA
// channels and NIC memory instead of each message having the device to
// itself. On the send side, Send accumulates outbound messages and
// FlushSends runs them through one shared outbound device the same way
// (Flush drains both directions, sends first). Endpoints are safe for
// concurrent use.
type Endpoint struct {
	sess *Session
	cfg  EndpointConfig

	mu           sync.Mutex
	pt           *portals.PT
	nextBits     portals.MatchBits
	pending      []*postOp
	pendingSends []*sendOp
}

// PostOpts tunes one posted message. The zero value is a valid default.
type PostOpts struct {
	// Seed generates the synthetic packed payload (0 = seed 1, matching
	// NewRequest); ignored when Packed is given.
	Seed int64
	// Packed, when non-nil, is the caller's wire stream — it must be
	// exactly the datatype's packed size (Type.Size() * count) and is
	// retained, never written, until the flush; nothing reads it after
	// Flush returns. This is how a served transfer hands the bytes that
	// actually crossed the wire to the scatter: the session daemon
	// (internal/server) posts each client stream through it zero-copy,
	// straight from the transport buffer the stream arrived in, so
	// verification checks true wire content, not a synthesized stand-in.
	Packed []byte
	// Start is when the message's first bit leaves its sender; staggering
	// starts models an incast ramp.
	Start sim.Time
	// Order permutes the message's packet delivery (nil = in-order).
	Order []int
	// Dst, when non-nil, is the caller's receive buffer (it must be
	// zeroed and at least the datatype footprint); nil draws a pooled
	// buffer that is reclaimed after verification.
	Dst []byte
	// NoVerify skips the byte-for-byte reference check.
	NoVerify bool
}

// postOp is one pending message of an endpoint.
type postOp struct {
	h     *TypeHandle
	build *handleBuild
	off   *Offload
	count int
	opts  PostOpts

	packed []byte
	dst    []byte
	dstBuf *[]byte // pooled receive buffer; nil when the caller supplied Dst
	hi     int64
	bits   portals.MatchBits
	me     *portals.ME

	done bool
	res  Result
	err  error
}

// Future is the deferred result of one posted message.
type Future struct {
	ep *Endpoint
	op *postOp
}

// Post posts a receive of count elements of the committed handle to the
// endpoint and returns its Future. The message executes at the next Flush
// (or the Future's Wait); the handle's offload state is NOT rebuilt — that
// happened once at first use — so a post costs only the per-message
// bookkeeping.
func (ep *Endpoint) Post(h *TypeHandle, count int, opts PostOpts) (*Future, error) {
	if h == nil {
		return nil, fmt.Errorf("core: post with nil handle")
	}
	if h.sess != ep.sess {
		return nil, fmt.Errorf("core: handle committed on a different session")
	}
	if ep.sess.isClosed() {
		return nil, ErrSessionClosed
	}
	if count <= 0 {
		return nil, fmt.Errorf("core: count %d", count)
	}
	switch h.strategy {
	case HostUnpack, PortalsIovec:
		return nil, fmt.Errorf("core: endpoint posts require an offloaded strategy, not %v", h.strategy)
	}
	b, err := h.build(count)
	if err != nil {
		return nil, err
	}
	off, err := h.instantiate(b)
	if err != nil {
		return nil, err
	}

	typ := h.typ
	msgSize := typ.Size() * int64(count)
	lo, hi := typ.Footprint(count)
	if lo < 0 {
		return nil, fmt.Errorf("core: receive datatype has negative lower bound %d", lo)
	}
	op := &postOp{
		h: h, build: b, off: off, count: count, opts: opts,
		hi: hi,
	}
	if opts.Packed != nil {
		if int64(len(opts.Packed)) != msgSize {
			return nil, fmt.Errorf("core: packed stream %d bytes, datatype packs to %d", len(opts.Packed), msgSize)
		}
		op.packed = opts.Packed
	} else {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		op.packed = payloadFor(seed, msgSize)
	}
	if opts.Dst != nil {
		if int64(len(opts.Dst)) < hi {
			return nil, fmt.Errorf("core: receive buffer %d bytes, datatype needs %d", len(opts.Dst), hi)
		}
		op.dst = opts.Dst
	} else {
		op.dstBuf = getZeroBuf(hi)
		op.dst = *op.dstBuf
	}

	ep.mu.Lock()
	defer ep.mu.Unlock()
	op.bits = ep.nextBits
	ep.nextBits++
	op.me = &portals.ME{Match: op.bits, Ctx: off.Ctx, UseOnce: true}
	if err := ep.pt.Append(portals.PriorityList, op.me); err != nil {
		if op.dstBuf != nil {
			putCleanBuf(op.dstBuf) // drawn zeroed and never written
		}
		return nil, err
	}
	ep.pending = append(ep.pending, op)
	return &Future{ep: ep, op: op}, nil
}

// Flush executes every pending send and post, each direction in one
// batched device residency pass, and resolves their futures. It returns
// the first per-message error (each future still carries its own).
func (ep *Endpoint) Flush() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	sendErr := ep.flushSendsLocked()
	if err := ep.flushLocked(); err != nil && sendErr == nil {
		sendErr = err
	}
	return sendErr
}

func (ep *Endpoint) flushLocked() error {
	ops := ep.pending
	if len(ops) == 0 {
		return nil
	}
	ep.pending = nil

	msgs := make([]BackendMessage, len(ops))
	for i, op := range ops {
		msgs[i] = BackendMessage{
			Type:   op.h.typ,
			Count:  op.count,
			PT:     ep.pt,
			Bits:   op.bits,
			Packed: op.packed,
			Dst:    op.dst,
			Start:  op.opts.Start,
			Order:  op.opts.Order,
		}
	}
	env := BackendEnv{NIC: ep.sess.cfg.NIC, Host: ep.sess.cfg.Host}
	env.NIC.Trace = ep.cfg.Trace // session-level traces are rejected at NewSession
	release := ep.sess.acquireTrace(ep.cfg.Trace)
	_, results, err := ep.sess.backend.Exchange(env, nil, msgs)
	release()
	// Retire this flush's match entries whether or not the backend
	// consumed them (SimBackend unlinks at match time; a host backend
	// never touches the PT) so the priority list stays bounded.
	for _, op := range ops {
		ep.pt.Unlink(op.me)
	}
	if err != nil {
		for _, op := range ops {
			op.done, op.err = true, err
			if op.dstBuf != nil {
				putBuf(op.dstBuf) // possibly partially scattered: dirty pool
			}
			op.releaseOff()
		}
		return err
	}
	ep.pt.DrainEvents() // keep the endpoint's event queue bounded

	var first error
	for i, op := range ops {
		op.done = true
		op.res, op.err = ep.finishOp(op, results[i])
		op.releaseOff()
		if op.err != nil && first == nil {
			first = op.err
		}
	}
	return first
}

// releaseOff returns the op's pooled instance once the op is done. The
// shared Specialized template instance is left alone — every post of the
// handle plugs it in, so it never enters the pool.
func (op *postOp) releaseOff() {
	if op.off != op.build.template {
		op.off.Release()
	}
}

// finishOp assembles one post's Result from its device-level result,
// applying the Fig. 18 amortization: only the first flushed post of a
// (handle, count) build reports the host preparation cost.
func (ep *Endpoint) finishOp(op *postOp, nicRes nic.Result) (Result, error) {
	res := op.off.result(op.h.typ, op.count, ep.sess.cfg.NIC.Fabric.MTU, nicRes)
	if !op.build.posted.CompareAndSwap(false, true) {
		res.Prep = HostPrep{}
	}
	if !op.opts.NoVerify {
		if err := verifyRecv(op.h.typ, op.count, op.packed, op.dst, op.hi, op.dstBuf); err != nil {
			return Result{}, fmt.Errorf("core: %v (backend %s): %w", op.h.strategy, ep.sess.backend.Name(), err)
		}
		res.Verified = true
	} else if op.dstBuf != nil {
		putBuf(op.dstBuf)
	}
	return res, nil
}

// Wait flushes the endpoint if the message is still pending and returns
// the message's Result.
func (f *Future) Wait() (Result, error) {
	f.ep.mu.Lock()
	defer f.ep.mu.Unlock()
	if !f.op.done {
		if err := f.ep.flushLocked(); err != nil && !f.op.done {
			return Result{}, err
		}
	}
	return f.op.res, f.op.err
}

// Done reports whether the message has been flushed.
func (f *Future) Done() bool {
	f.ep.mu.Lock()
	defer f.ep.mu.Unlock()
	return f.op.done
}
