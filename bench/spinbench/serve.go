package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/plan"
	"spinddt/internal/server"
	"spinddt/internal/server/client"
	"spinddt/internal/transport"
)

// ladderEvery is how often a traced serve trial replays an op's input:
// every 8th op, so the replays cost the trial about a tenth of its time.
const ladderEvery = 8

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// allocated returns the heap bytes and objects allocated by fn. The
// ReadMemStats calls stop the world, which flushes every per-P cache, so
// the counts are exact.
func allocated(fn func() error) (bytes, objects float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs), err
}

// --- serve-steady: per-message cost of the served path ---

const steadyDeck = 16 // distinct seeded payloads, posted in turn

type steadyLoad struct {
	srv      *server.Server
	c        *client.Client
	h        uint32
	payloads [][]byte
	before   transport.Stats // the client's transport counters at mark
	rungs    *servedRungs    // traced trials only
}

func newSteady(seed int64, _ int, traced bool) (load, error) {
	srv, err := newDaemon()
	if err != nil {
		return nil, err
	}
	l := &steadyLoad{srv: srv}
	if l.c, err = client.Dial(srv.Addr().String(), 1, client.Config{}); err != nil {
		srv.Close()
		return nil, err
	}
	if err := l.c.Open(); err != nil {
		l.close()
		return nil, err
	}
	typ := ladderType()
	if l.h, err = l.c.CommitAuto(typ); err != nil {
		l.close()
		return nil, err
	}
	for i := 0; i < steadyDeck; i++ {
		p := make([]byte, typ.Size())
		fill(seed*steadyDeck+int64(i), p)
		l.payloads = append(l.payloads, p)
	}
	if traced {
		if l.rungs, err = newServedRungs(typ); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *steadyLoad) op(_, i int, tr *tracer) (int64, error) {
	p := l.payloads[i%len(l.payloads)]
	s := tr.begin("client.PostPacked")
	id, err := l.c.PostPacked(l.h, 1, p)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("client.Flush")
	recs, err := l.c.Flush()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("bench.verify")
	err = checkRecords(recs, expect{id, uint64(len(p))})
	tr.end(s)
	return int64(len(p)), err
}

// ladder replays every ladderEvery-th op's payload on the lower rungs;
// the op itself is the top rung.
func (l *steadyLoad) ladder(_, i int, tr *tracer) error {
	if i%ladderEvery != 0 {
		return nil
	}
	post, ok := tr.last("client.PostPacked")
	flush, ok2 := tr.last("client.Flush")
	if !ok || !ok2 {
		return fmt.Errorf("served ladder: op %d recorded no client spans", i)
	}
	return l.rungs.replay(l.payloads[i%len(l.payloads)], post+flush, tr)
}

func (l *steadyLoad) mark() { l.before = l.c.Stats() }

// counters reports the client socket's transport counters: data frames
// sent to the daemon and acks received for them, per op.
func (l *steadyLoad) counters(ops int) map[string]float64 {
	s := l.c.Stats()
	data := float64(s.DataSent - l.before.DataSent)
	return map[string]float64{
		"transport.frames_per_op":   data / float64(ops),
		"transport.acks_per_op":     float64(s.AcksReceived-l.before.AcksReceived) / float64(ops),
		"transport.retransmit_frac": float64(s.Retransmits-l.before.Retransmits) / data,
	}
}

func (l *steadyLoad) close() {
	l.c.CloseSession()
	l.c.Close()
	l.srv.Close()
	if l.rungs != nil {
		l.rungs.close()
	}
}

// servedRungs are the lower rungs of the served ladder, each taking the
// same 64 KiB stream one layer further out: the plan kernels, an
// in-process core session, and a bench-owned transport endpoint pair.
type servedRungs struct {
	plan *plan.Plan
	dst  []byte

	sess *core.Session // MemBackend
	h    *core.TypeHandle
	ep   *core.Endpoint

	ta, tb    *transport.Endpoint
	responder sync.WaitGroup
	nextMsg   uint32
}

// replyBit marks the transport responder's reply ids.
const replyBit = 1 << 31

func newServedRungs(typ *ddt.Type) (r *servedRungs, err error) {
	r = &servedRungs{plan: typ.Plan()}
	_, hi := typ.Footprint(1)
	r.dst = make([]byte, hi)
	cfg := core.NewSessionConfig()
	cfg.Backend = core.MemBackend{}
	r.sess = core.NewSession(cfg)
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.h, err = r.sess.Commit(typ); err != nil {
		return r, err
	}
	r.ep = r.sess.Endpoint(core.EndpointConfig{})
	ca, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	cb, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		ca.Close()
		return r, err
	}
	r.ta = transport.NewEndpoint(ca, cb.LocalAddr(), 1, transport.Config{})
	r.tb = transport.NewEndpoint(cb, ca.LocalAddr(), 1, transport.Config{})
	r.responder.Add(1)
	go r.respond()
	return r, nil
}

// respond is the transport pair's echo side: a one-frame reply to every
// request, until the endpoint closes.
func (r *servedRungs) respond() {
	defer r.responder.Done()
	reply := []byte("ok")
	for {
		msg, err := r.tb.Recv(0)
		if err != nil {
			return
		}
		id := msg.ID
		msg.Release()
		if err := r.tb.Send(id|replyBit, nil, reply); err != nil {
			return
		}
	}
}

// replay measures p on every lower rung; served is the op's own
// PostPacked + Flush time. Each marginal is a rung minus the rungs it
// contains, on the same payload.
func (r *servedRungs) replay(p []byte, served float64, tr *tracer) error {
	t0 := time.Now()
	r.plan.Unpack(1, p, r.dst)
	t1 := time.Now()
	ok := r.plan.Equal(1, r.dst, p)
	t2 := time.Now()
	if !ok {
		return fmt.Errorf("plan rung: unpacked buffer does not match the stream")
	}
	planUs := micros(t2.Sub(t0))
	tr.add("plan.unpack_us", micros(t1.Sub(t0)))
	tr.add("plan.equal_us", micros(t2.Sub(t1)))
	tr.add("ladder.plan_us", planUs)

	var d time.Duration
	var res core.Result
	b, _, err := allocated(func() error {
		t0 := time.Now()
		f, err := r.ep.Post(r.h, 1, core.PostOpts{Packed: p})
		if err != nil {
			return err
		}
		if err := r.ep.Flush(); err != nil {
			return err
		}
		res, err = f.Wait()
		d = time.Since(t0)
		return err
	})
	if err == nil && !res.Verified {
		err = fmt.Errorf("not verified")
	}
	if err != nil {
		return fmt.Errorf("session rung: %w", err)
	}
	session := micros(d)
	tr.add("ladder.session_us", session)
	tr.add("ladder.session_marginal_us", session-planUs)
	tr.add("core.post_flush_alloc_KB", b/1024)

	r.nextMsg++
	id := r.nextMsg
	b, objs, err := allocated(func() error {
		t0 := time.Now()
		if err := r.ta.Send(id, nil, p); err != nil {
			return err
		}
		msg, err := r.ta.Recv(10 * time.Second)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		got := msg.ID
		msg.Release()
		if got != id|replyBit {
			return fmt.Errorf("reply id %#x, want %#x", got, id|replyBit)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("transport rung: %w", err)
	}
	wire := micros(d)
	tr.add("ladder.transport_us", wire)
	tr.add("transport.alloc_KB_per_msg", b/1024)
	tr.add("transport.allocs_per_msg", objs)

	tr.add("ladder.served_us", served)
	tr.add("ladder.server_marginal_us", served-wire-session)
	return nil
}

func (r *servedRungs) close() {
	if r.ta != nil {
		r.ta.Close()
		r.tb.Close()
		r.responder.Wait()
	}
	r.sess.Close()
}

// --- serve-churn: per-session cost of the served path ---

const (
	churnPool      = 64   // seeded types most sessions commit
	churnMissEvery = 8    // every 8th session commits a never-seen type
	churnBytes     = 8192 // packed bytes per post and per send
	churnSeeds     = 16   // distinct server-side payload seeds
	// churnMaxFootprint keeps one session's buffers far below the
	// daemon's byte budget.
	churnMaxFootprint = 256 << 10
)

// sized is a datatype with the element count one churn session moves.
type sized struct {
	t     *ddt.Type
	count int
}

// churnTypes draws n seeded random types (constructor depth <= 4), each
// with a count that makes about churnBytes of packed data and a bounded,
// non-negative footprint.
func churnTypes(rng *rand.Rand, n int) []sized {
	out := make([]sized, 0, n)
	for len(out) < n {
		t := ddt.RandomType(rng, 4).Commit()
		count := max(1, churnBytes/int(t.Size()))
		if lo, hi := t.Footprint(count); lo < 0 || hi > churnMaxFootprint {
			continue
		}
		out = append(out, sized{t, count})
	}
	return out
}

type churnLoad struct {
	srv    *server.Server
	eps    []*transport.Endpoint
	seed   int64
	types  []sized // per op: the type its session commits
	before server.Stats

	// Traced trials only: the in-process session the commit replays use,
	// and per-client pack buffers.
	probe   *core.Session
	scratch [][2][]byte
}

// newChurn draws the pool and, for every op, which type its session
// commits: a pool type, or for every churnMissEvery-th op a fresh one.
func newChurn(seed int64, ops int, traced bool) (load, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := churnTypes(rng, churnPool)
	types := make([]sized, ops)
	for i := range types {
		if i%churnMissEvery == churnMissEvery-1 {
			types[i] = churnTypes(rng, 1)[0]
		} else {
			types[i] = pool[rng.Intn(len(pool))]
		}
	}
	srv, err := newDaemon()
	if err != nil {
		return nil, err
	}
	l := &churnLoad{srv: srv, seed: seed, types: types}
	for range 2 {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			l.close()
			return nil, err
		}
		l.eps = append(l.eps, transport.NewEndpoint(conn, srv.Addr(), 0, transport.Config{}))
	}
	if traced {
		cfg := core.NewSessionConfig()
		cfg.Backend = core.MemBackend{}
		l.probe = core.NewSession(cfg)
		l.scratch = make([][2][]byte, len(l.eps))
	}
	return l, nil
}

// op runs one whole session as a view on client w's socket. The session
// id is the op index, so ids never repeat within a trial.
func (l *churnLoad) op(w, i int, tr *tracer) (n int64, err error) {
	st := l.types[i]
	c := client.NewOnEndpoint(l.eps[w], l.srv.Addr(), uint32(i+1), 0)
	opened := false
	defer func() {
		if err != nil && opened {
			c.CloseSession() // best effort: free the failed session's state
		}
	}()
	s := tr.begin("client.Open")
	err = c.Open()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	opened = true
	s = tr.begin("client.CommitAuto")
	h, err := c.CommitAuto(st.t)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	seed := l.seed*churnSeeds + int64(i%churnSeeds)
	s = tr.begin("client.Post")
	post, err := c.Post(h, st.count, seed)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("client.Send")
	send, err := c.Send(h, st.count, seed)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("client.Flush")
	recs, err := c.Flush()
	tr.end(s)
	if err != nil {
		return 0, err
	}
	size := uint64(st.t.Size()) * uint64(st.count)
	s = tr.begin("bench.verify")
	err = checkRecords(recs, expect{post, size}, expect{send, size})
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("client.Free")
	err = c.Free(h)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	opened = false
	s = tr.begin("client.CloseSession")
	err = c.CloseSession()
	tr.end(s)
	return 2 * int64(size), err
}

// ladder replays the datatype of every ladderEvery-th op through the
// steps the daemon runs on a commit and a post, in process: the wire
// decode of the commit request, ddt decode and compile, the session
// commit (a miss for the freshly decoded type, then a hit), and the
// plan's pack kernel.
func (l *churnLoad) ladder(w, i int, tr *tracer) error {
	if i%ladderEvery != 0 {
		return nil
	}
	st := l.types[i]
	hdr, body := server.EncodeRequest(&server.Request{Kind: server.ReqCommit, Strategy: server.StrategyAuto, Type: st.t})
	t0 := time.Now()
	req, err := server.DecodeRequest(hdr, body)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("server decode: %w", err)
	}
	if req.Type.Size() != st.t.Size() {
		return fmt.Errorf("server decode: type size %d, want %d", req.Type.Size(), st.t.Size())
	}
	tr.add("server.decode_us", micros(d))

	enc := ddt.Encode(st.t)
	t0 = time.Now()
	typ, err := ddt.Decode(enc)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("ddt decode: %w", err)
	}
	typ.Commit()
	t2 := time.Now()
	if !ddt.TypemapEqual(typ, st.t) {
		return fmt.Errorf("ddt decode: typemap differs from the encoded type")
	}
	tr.add("ddt.decode_us", micros(t1.Sub(t0)))
	tr.add("ddt.commit_us", micros(t2.Sub(t1)))

	t0 = time.Now()
	h, err := l.probe.Commit(typ)
	t1 = time.Now()
	if err != nil {
		return fmt.Errorf("core commit: %w", err)
	}
	again, err := l.probe.Commit(typ)
	t2 = time.Now()
	if err != nil || again != h {
		return fmt.Errorf("core commit of a held type: handle %p, want %p (%v)", again, h, err)
	}
	h.Free()
	tr.add("core.commit_us.miss", micros(t1.Sub(t0)))
	tr.add("core.commit_us.hit", micros(t2.Sub(t1)))

	_, hi := st.t.Footprint(st.count)
	n := st.t.Size() * int64(st.count)
	buf := &l.scratch[w]
	src, dst := grow(buf[0], hi), grow(buf[1], n)
	buf[0], buf[1] = src, dst
	fill(l.seed+int64(i), src)
	t0 = time.Now()
	st.t.Plan().Pack(st.count, src, dst)
	d = time.Since(t0)
	if !st.t.Plan().Equal(st.count, src, dst) {
		return fmt.Errorf("plan pack: stream differs from the source")
	}
	tr.add("plan.pack_us", micros(d))
	return nil
}

// grow returns b resized to n bytes, reallocating only when it is too
// small.
func grow(b []byte, n int64) []byte {
	if int64(cap(b)) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func (l *churnLoad) mark() { l.before = l.srv.Stats() }

// counters reports the daemon's requests and typed rejections per session.
func (l *churnLoad) counters(ops int) map[string]float64 {
	s := l.srv.Stats()
	return map[string]float64{
		"server.requests_per_op":   float64(s.Requests-l.before.Requests) / float64(ops),
		"server.rejections_per_op": float64(s.Rejections-l.before.Rejections) / float64(ops),
	}
}

func (l *churnLoad) close() {
	for _, ep := range l.eps {
		ep.Close()
	}
	l.srv.Close()
	if l.probe != nil {
		l.probe.Close()
	}
}
