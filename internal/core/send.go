package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// This file is the sender side of the session API: Endpoint.Send posts an
// outbound message against a committed TypeHandle and FlushSends executes
// every pending send through ONE outbound device pass — the messages
// contend for the endpoint NIC's HPUs, host read path, injection link and
// NIC memory, mirroring what Post/Flush does on the receive side. The
// handle's gather state is built exactly once per (handle, count); the
// first flushed send reports the host preparation, every later send
// reports zero (the Fig. 18 amortization, sender edition).

// SendOpts tunes one posted send. The zero value is a valid default.
type SendOpts struct {
	// Seed generates the synthetic source buffer (0 = seed 1); ignored
	// when Src is given.
	Seed int64
	// Start is when the send is issued; staggering starts models a
	// bursty injection ramp.
	Start sim.Time
	// Src, when non-nil, is the caller's source buffer (at least the
	// datatype footprint); nil synthesizes a deterministic image.
	Src []byte
	// NoVerify skips the byte-for-byte check of the produced wire stream
	// against the reference ddt.Pack.
	NoVerify bool
}

// SendReport reports one flushed send.
type SendReport struct {
	// NIC is the device-level result (injection time, HPU busy time...).
	NIC nic.SendResult
	// MsgBytes is the packed message size.
	MsgBytes int64
	// Prep is the host-side preparation of the gather state; only the
	// first flushed send of a (handle, count) build reports it.
	Prep HostPrep
	// Verified is set when the wire stream matched the reference pack.
	Verified bool
}

// sendOp is one pending send of an endpoint.
type sendOp struct {
	h     *TypeHandle
	build *txBuild
	count int
	opts  SendOpts

	src       []byte
	packed    []byte
	packedBuf *[]byte // pooled handle of packed

	done bool
	res  SendReport
	err  error
}

// SendFuture is the deferred result of one posted send.
type SendFuture struct {
	ep *Endpoint
	op *sendOp
}

// txBuild is the once-built sender state of one (handle, count): the
// send recipe of the handle's strategy.
type txBuild struct {
	once sync.Once
	err  error
	sendRecipe

	// posted flips on the first flushed send: Fig. 18 semantics on the
	// sender side — later sends of the same build report zero prep.
	posted atomic.Bool
}

// prep returns the host preparation cost of the build (zero for the CPU
// pack kind: there is no NIC state to stage).
func (b *txBuild) prep() HostPrep {
	if b.off != nil {
		return b.off.Prep
	}
	return HostPrep{}
}

// buildTx returns the once-built sender state for count elements, building
// it on first use. The handle's receive strategy selects the sender
// pipeline: HostUnpack commits to CPU pack+send, PortalsIovec to streaming
// puts (the region list drives the announcements), and every offloaded
// strategy to the NIC-side gather — the sPIN offload is symmetric, so a
// handle committed for an offloaded receive sends through the same
// committed layout.
func (h *TypeHandle) buildTx(count int) (*txBuild, error) {
	cb, err := h.builtFor(count)
	if err != nil {
		return nil, err
	}
	b := &cb.tx
	b.once.Do(func() {
		strategy := OutboundSpin
		switch h.strategy {
		case HostUnpack:
			strategy = PackSend
		case PortalsIovec:
			strategy = StreamingPuts
		}
		cfg := &h.sess.cfg
		b.sendRecipe, b.err = h.sess.caches.sendRecipe(strategy, BuildParams{
			Type: h.typ, Count: count, NIC: cfg.NIC, Cost: cfg.Cost, Host: cfg.Host,
		})
	})
	if b.err != nil {
		return nil, b.err
	}
	return b, nil
}

// Send posts a send of count elements of the committed handle to the
// endpoint and returns its SendFuture. The message executes at the next
// FlushSends (or the future's Wait); the handle's gather state is NOT
// rebuilt — that happened once at first use — so a send costs only the
// per-message bookkeeping.
func (ep *Endpoint) Send(h *TypeHandle, count int, opts SendOpts) (*SendFuture, error) {
	if h == nil {
		return nil, fmt.Errorf("core: send with nil handle")
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
	b, err := h.buildTx(count)
	if err != nil {
		return nil, err
	}

	typ := h.typ
	msgSize := typ.Size() * int64(count)
	lo, hi := typ.Footprint(count)
	if lo < 0 {
		return nil, fmt.Errorf("core: send datatype has negative lower bound %d", lo)
	}
	op := &sendOp{h: h, build: b, count: count, opts: opts}
	if opts.Src != nil {
		if int64(len(opts.Src)) < hi {
			return nil, fmt.Errorf("core: source buffer %d bytes, datatype needs %d", len(opts.Src), hi)
		}
		op.src = opts.Src
	} else {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		op.src = payloadFor(seed, hi)
	}
	op.packedBuf = getBuf(msgSize)
	op.packed = *op.packedBuf

	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.pendingSends = append(ep.pendingSends, op)
	return &SendFuture{ep: ep, op: op}, nil
}

// FlushSends executes every pending send in one batched outbound device
// pass and resolves their futures. It returns the first per-message error
// (each future still carries its own).
func (ep *Endpoint) FlushSends() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.flushSendsLocked()
}

func (ep *Endpoint) flushSendsLocked() error {
	ops := ep.pendingSends
	if len(ops) == 0 {
		return nil
	}
	ep.pendingSends = nil

	sends := make([]BackendSend, len(ops))
	for i, op := range ops {
		sends[i] = BackendSend{
			Type:  op.h.typ,
			Count: op.count,
			Src:   op.src,
			Msg:   op.build.message(op.opts.Start, op.src, op.packed),
		}
	}
	env := BackendEnv{NIC: ep.sess.cfg.NIC, Host: ep.sess.cfg.Host}
	results, _, err := ep.sess.backend.Exchange(env, sends, nil)
	if err != nil {
		for _, op := range ops {
			op.done, op.err = true, err
			putBuf(op.packedBuf)
		}
		return err
	}

	var first error
	for i, op := range ops {
		op.done = true
		op.res, op.err = ep.finishSendOp(op, results[i])
		if op.err != nil && first == nil {
			first = op.err
		}
	}
	return first
}

// finishSendOp assembles one send's report, applying the sender-side
// Fig. 18 amortization: only the first flushed send of a (handle, count)
// build reports the host preparation cost.
func (ep *Endpoint) finishSendOp(op *sendOp, nicRes nic.SendResult) (SendReport, error) {
	res := SendReport{NIC: nicRes, MsgBytes: int64(len(op.packed))}
	if op.build.posted.CompareAndSwap(false, true) {
		res.Prep = op.build.prep()
	}
	if !op.opts.NoVerify {
		// Only a gathered stream carries information to check: the
		// CPU-side kinds were materialized by the reference pack itself.
		if op.build.kind == nic.TxProcessPut {
			same, err := verifyWire(op.h.typ, op.count, op.src, op.packed)
			putBuf(op.packedBuf)
			if err != nil {
				return SendReport{}, err
			}
			if !same {
				return SendReport{}, fmt.Errorf("core: %v send (backend %s): wire stream differs from reference pack",
					op.h.strategy, ep.sess.backend.Name())
			}
		} else {
			putBuf(op.packedBuf)
		}
		res.Verified = true
	} else {
		putBuf(op.packedBuf)
	}
	return res, nil
}

// verifyWire checks a gathered wire stream against the reference pack of
// the committed datatype. A lowered plan compares region by region with no
// scratch pack; types without a plan — or buffers not covering the element
// footprint — fall back to a reference PackInto of a pooled buffer.
func verifyWire(typ *ddt.Type, count int, src, packed []byte) (bool, error) {
	if p := typ.Plan(); p != nil && count > 0 {
		lo, hi := typ.Footprint(count)
		if lo >= 0 && hi <= int64(len(src)) && typ.Size()*int64(count) <= int64(len(packed)) {
			return p.Equal(count, src, packed), nil
		}
	}
	want := getBuf(int64(len(packed)))
	defer putBuf(want)
	if _, err := ddt.PackInto(typ, count, src, *want); err != nil {
		return false, err
	}
	return bytes.Equal(packed, *want), nil
}

// Wait flushes the endpoint's sends if the message is still pending and
// returns the send's report.
func (f *SendFuture) Wait() (SendReport, error) {
	f.ep.mu.Lock()
	defer f.ep.mu.Unlock()
	if !f.op.done {
		if err := f.ep.flushSendsLocked(); err != nil && !f.op.done {
			return SendReport{}, err
		}
	}
	return f.op.res, f.op.err
}

// Done reports whether the send has been flushed.
func (f *SendFuture) Done() bool {
	f.ep.mu.Lock()
	defer f.ep.mu.Unlock()
	return f.op.done
}
