package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/plan"
	"spinddt/internal/sim"
	"spinddt/internal/transport"
)

// ErrTimeout reports a message whose transport retry budget was exhausted.
// It is the transport package's sentinel re-exported at the core layer so
// session users can errors.Is against it without importing transport.
var ErrTimeout = transport.ErrTimeout

// BatchError carries per-message errors out of a partially failed flush:
// Errs[i] is message i's error, nil for messages that completed. The
// session layer unpacks it so one timed-out message fails only its own
// Future instead of poisoning the whole batch.
type BatchError struct {
	Errs []error
}

// Error implements error.
func (e *BatchError) Error() string {
	failed, first := 0, error(nil)
	for _, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return fmt.Sprintf("core: %d of %d batch messages failed; first: %v", failed, len(e.Errs), first)
}

// Unwrap exposes the non-nil per-message errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// batchErr returns nil when every entry is nil, else a BatchError.
func batchErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &BatchError{Errs: errs}
		}
	}
	return nil
}

// UDPConfig configures a UDPBackend.
type UDPConfig struct {
	// Network selects the wire: "udp" (default) binds two kernel UDP
	// loopback sockets; "pipe" uses the in-memory transport.Pipe — the
	// same code paths without kernel timing noise, for deterministic
	// tests.
	Network string
	// Transport tunes the reliability layer (zero value = defaults).
	Transport transport.Config
	// Fault, when non-nil, wraps both socket directions in fault
	// injection. The ack direction derives its own PRNG stream from
	// Seed so the two injectors don't mirror each other.
	Fault *transport.FaultConfig
}

// udpRecvTimeout bounds how long a flush waits for a message the
// transport already acknowledged. An acked send has landed at the
// receiving endpoint, so this only trips on an internal invariant
// violation, not on wire loss.
const udpRecvTimeout = 30 * time.Second

// UDPBackend executes the data movement over a real wire: each posted
// message's packed stream is framed, sent over UDP (or an in-memory
// pipe) through the reliability layer, and scattered on the receiving
// side through the datatype decoded from the wire — gather on the
// sender, scatter on the receiver, exactly the paper's exchange split.
// Reported times come from the same host CPU cost model as MemBackend,
// so results stay deterministic and byte-identical to the oracle even
// though delivery rides a lossy wire.
//
// A flush that exhausts a message's retry budget fails only that
// message: the returned error is a *BatchError whose entries wrap
// ErrTimeout. Close releases both sockets; Session.Close calls it for
// backends it is handed.
type UDPBackend struct {
	mu sync.Mutex // serializes flushes: message IDs route per call
	tx *transport.Endpoint
	rx *transport.Endpoint
}

// NewUDPBackend opens the socket pair and starts the transport
// endpoints.
func NewUDPBackend(cfg UDPConfig) (*UDPBackend, error) {
	var a, b net.PacketConn
	switch strings.ToLower(cfg.Network) {
	case "", "udp":
		var err error
		if a, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("core: udp backend: %w", err)
		}
		if b, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			a.Close()
			return nil, fmt.Errorf("core: udp backend: %w", err)
		}
	case "pipe":
		a, b = transport.Pipe()
	default:
		return nil, fmt.Errorf("core: udp backend: unknown network %q", cfg.Network)
	}
	peerA, peerB := b.LocalAddr(), a.LocalAddr()
	ca, cb := a, b
	if cfg.Fault != nil {
		dataFault := *cfg.Fault
		ackFault := dataFault
		ackFault.Seed = dataFault.Seed ^ 0x5eed
		ca = transport.NewFaultConn(a, dataFault)
		cb = transport.NewFaultConn(b, ackFault)
	}
	return &UDPBackend{
		tx: transport.NewEndpoint(ca, peerA, 1, cfg.Transport),
		rx: transport.NewEndpoint(cb, peerB, 1, cfg.Transport),
	}, nil
}

// Name implements Backend.
func (u *UDPBackend) Name() string { return "udp" }

// Close shuts down both transport endpoints and their sockets.
func (u *UDPBackend) Close() error {
	u.tx.Close()
	return u.rx.Close()
}

// recvMeta is the wire header of one flushed message.
func recvMeta(m *BackendMessage) transport.WireMeta {
	if m.Type == nil {
		return transport.WireMeta{Offset: m.Region.Offset}
	}
	return transport.WireMeta{Type: m.Type, Count: m.Count}
}

// drainInto receives `expect` routed messages, dispatching each through
// deliver. Messages whose ID is not in idx are stale leftovers of a
// previously timed-out send that completed after its sender gave up;
// they are dropped.
func (u *UDPBackend) drainInto(expect int, idx map[uint32]int, deliver func(i int, msg transport.Message)) error {
	for remaining := expect; remaining > 0; {
		msg, err := u.rx.Recv(udpRecvTimeout)
		if err != nil {
			return fmt.Errorf("core: udp backend receive: %w", err)
		}
		i, ok := idx[msg.ID]
		if !ok {
			msg.Release()
			continue
		}
		delete(idx, msg.ID)
		remaining--
		deliver(i, msg)
		msg.Release()
	}
	return nil
}

// scatter unpacks one received message through its datatype into its
// destination buffer and reports cost-model timing, mirroring
// MemBackend so both backends land identical results. want is the
// CRC-32C the sender computed over the wire stream it injected; when the
// destination type carries a lowered plan, the checksum of what actually
// arrived is computed FUSED with the scatter (one pass over the payload)
// and compared, otherwise a separate checksum pass runs before the unpack.
func scatter(env BackendEnv, m *BackendMessage, meta transport.WireMeta, payload []byte, start sim.Time, want uint32) (nic.Result, error) {
	res := nic.Result{MsgBytes: int64(len(payload)), FirstByte: start}
	if meta.Type != nil {
		if err := scatterPayload(env, m, meta, payload, want); err != nil {
			return res, err
		}
		cost := hostcpu.UnpackCost(env.Host, meta.Type, meta.Count)
		res.Done = start + cost.Time
		res.DMA = nic.DMAStats{Writes: meta.Type.TotalBlocks(meta.Count), Bytes: int64(len(payload))}
	} else {
		if meta.Offset > int64(len(m.Dst)) {
			return res, fmt.Errorf("offset %d beyond %d-byte destination", meta.Offset, len(m.Dst))
		}
		if got := plan.Checksum(payload); got != want {
			return res, fmt.Errorf("wire checksum %08x, sender computed %08x", got, want)
		}
		copy(m.Dst[meta.Offset:], payload)
		res.Done = start + hostcpu.CopyCost(env.Host, int64(len(payload)))
		res.DMA = nic.DMAStats{Writes: 1, Bytes: int64(len(payload))}
	}
	res.ProcTime = res.Done - res.FirstByte
	return res, nil
}

// scatterPayload is the datatype half of scatter: the fused
// unpack+checksum kernel when the type's lowered plan applies (the payload
// is exactly the packed size and the destination covers the footprint),
// the reference checksum-then-Unpack otherwise.
func scatterPayload(env BackendEnv, m *BackendMessage, meta transport.WireMeta, payload []byte, want uint32) error {
	typ, count := meta.Type, meta.Count
	if p := typ.Plan(); p != nil && count > 0 && typ.Size()*int64(count) == int64(len(payload)) {
		lo, hi := typ.Footprint(count)
		if lo >= 0 && hi <= int64(len(m.Dst)) {
			if got := p.UnpackSum(count, payload, m.Dst); got != want {
				return fmt.Errorf("wire checksum %08x, sender computed %08x", got, want)
			}
			env.Counters.noteFusedUnpack()
			return nil
		}
	}
	if got := plan.Checksum(payload); got != want {
		return fmt.Errorf("wire checksum %08x, sender computed %08x", got, want)
	}
	return ddt.Unpack(typ, count, payload, m.Dst)
}

// Flush implements Backend over the wire: each message's packed stream
// travels sender endpoint -> receiver endpoint through the reliability
// layer together with its encoded exchange header, and the receiving
// side scatters the bytes it actually got off the wire.
func (u *UDPBackend) Flush(env BackendEnv, msgs []BackendMessage) ([]nic.Result, error) {
	u.mu.Lock()
	defer u.mu.Unlock()

	results := make([]nic.Result, len(msgs))
	errs := make([]error, len(msgs))
	sums := make([]uint32, len(msgs))
	idx := make(map[uint32]int, len(msgs))
	expect := 0
	for i := range msgs {
		m := &msgs[i]
		sums[i] = plan.Checksum(m.Packed)
		id := u.tx.NextMessageID()
		if err := u.tx.Send(id, transport.EncodeWireMeta(recvMeta(m)), m.Packed); err != nil {
			errs[i] = fmt.Errorf("core: udp backend message %d: %w", i, err)
			continue
		}
		idx[id] = i
		expect++
	}

	err := u.drainInto(expect, idx, func(i int, msg transport.Message) {
		m := &msgs[i]
		meta, merr := transport.DecodeWireMeta(msg.Hdr)
		if merr != nil {
			errs[i] = fmt.Errorf("core: udp backend message %d: %w", i, merr)
			return
		}
		res, serr := scatter(env, m, meta, msg.Payload, m.Start, sums[i])
		if serr != nil {
			errs[i] = fmt.Errorf("core: udp backend message %d: %w", i, serr)
			return
		}
		results[i] = res
	})
	if err != nil {
		return nil, err
	}
	return results, batchErr(errs)
}

// udpSendResult reports one completed send with the same cost-model
// timing as MemBackend's reference pack.
func udpSendResult(env BackendEnv, s *BackendSend) nic.SendResult {
	pack := hostcpu.PackCost(env.Host, s.Type, s.Count)
	return nic.SendResult{
		MsgBytes: s.Msg.MsgBytes,
		CPUBusy:  pack.Time,
		Injected: s.Msg.Start + pack.Time,
		Regions:  s.Type.TotalBlocks(s.Count),
	}
}

// FlushSends implements Backend over the wire: each send's gather (the
// reference pack of its committed type) is transmitted through
// the reliability layer, and the bytes that arrive become the send's
// wire stream — so downstream verification checks true wire integrity,
// not a local copy.
func (u *UDPBackend) FlushSends(env BackendEnv, sends []BackendSend) ([]nic.SendResult, error) {
	u.mu.Lock()
	defer u.mu.Unlock()

	results := make([]nic.SendResult, len(sends))
	errs := make([]error, len(sends))
	sums := make([]uint32, len(sends))
	idx := make(map[uint32]int, len(sends))
	expect := 0
	for i := range sends {
		s := &sends[i]
		if s.Type == nil {
			errs[i] = fmt.Errorf("core: udp backend send %d needs a datatype", i)
			continue
		}
		if s.Msg.Packed == nil {
			results[i] = udpSendResult(env, s)
			continue
		}
		scratch := getBuf(int64(len(s.Msg.Packed)))
		sum, err := packSum(env, s, *scratch)
		if err != nil {
			putBuf(scratch)
			errs[i] = fmt.Errorf("core: udp backend send %d: %w", i, err)
			continue
		}
		sums[i] = sum
		id := u.tx.NextMessageID()
		err = u.tx.Send(id, transport.EncodeWireMeta(transport.WireMeta{}), *scratch)
		putBuf(scratch)
		if err != nil {
			errs[i] = fmt.Errorf("core: udp backend send %d: %w", i, err)
			continue
		}
		idx[id] = i
		expect++
	}

	err := u.drainInto(expect, idx, func(i int, msg transport.Message) {
		if got := plan.Checksum(msg.Payload); got != sums[i] {
			errs[i] = fmt.Errorf("core: udp backend send %d: wire checksum %08x, gather computed %08x", i, got, sums[i])
			return
		}
		copy(sends[i].Msg.Packed, msg.Payload)
		results[i] = udpSendResult(env, &sends[i])
	})
	if err != nil {
		return nil, err
	}
	return results, batchErr(errs)
}

// packSum gathers one send's wire stream into scratch and returns its
// CRC-32C: the fused pack+checksum kernel when the committed type's
// lowered plan applies (scratch is exactly the packed size and the source
// covers the footprint), the reference PackInto plus a separate checksum
// pass otherwise.
func packSum(env BackendEnv, s *BackendSend, scratch []byte) (uint32, error) {
	typ, count := s.Type, s.Count
	if p := typ.Plan(); p != nil && count > 0 && typ.Size()*int64(count) == int64(len(scratch)) {
		lo, hi := typ.Footprint(count)
		if lo >= 0 && hi <= int64(len(s.Src)) {
			sum := p.PackSum(count, s.Src, scratch)
			env.Counters.noteFusedPack()
			return sum, nil
		}
	}
	if _, err := ddt.PackInto(typ, count, s.Src, scratch); err != nil {
		return 0, err
	}
	return plan.Checksum(scratch), nil
}

// Transfer implements Backend as gather -> wire -> scatter: the send
// side packs into the coupled wire stream, the stream crosses the
// transport, and the receive side scatters what arrived.
func (u *UDPBackend) Transfer(env BackendEnv, xfers []BackendTransfer) ([]nic.SendResult, []nic.Result, error) {
	u.mu.Lock()
	defer u.mu.Unlock()

	sends := make([]nic.SendResult, len(xfers))
	recvs := make([]nic.Result, len(xfers))
	sums := make([]uint32, len(xfers))
	idx := make(map[uint32]int, len(xfers))
	expect := 0
	for i := range xfers {
		x := &xfers[i]
		sr, err := memSend(env, &x.Send, i)
		if err != nil {
			return nil, nil, err
		}
		sends[i] = sr
		sums[i] = plan.Checksum(x.Recv.Packed)
		id := u.tx.NextMessageID()
		if err := u.tx.Send(id, transport.EncodeWireMeta(recvMeta(&x.Recv)), x.Recv.Packed); err != nil {
			return nil, nil, fmt.Errorf("core: udp backend transfer %d: %w", i, err)
		}
		idx[id] = i
		expect++
	}

	var scatterErr error
	err := u.drainInto(expect, idx, func(i int, msg transport.Message) {
		x := &xfers[i]
		meta, merr := transport.DecodeWireMeta(msg.Hdr)
		if merr == nil {
			recvs[i], merr = scatter(env, &x.Recv, meta, msg.Payload, sends[i].Injected, sums[i])
		}
		if merr != nil && scatterErr == nil {
			scatterErr = fmt.Errorf("core: udp backend transfer %d: %w", i, merr)
		}
	})
	if err == nil {
		err = scatterErr
	}
	if err != nil {
		return nil, nil, err
	}
	return sends, recvs, nil
}

// Iovec implements Backend over the wire: the packed stream is
// transmitted contiguously and the receiver scatters it through its
// locally posted region list (the Portals-4 iovec is receiver state,
// not wire state).
func (u *UDPBackend) Iovec(env BackendEnv, regions []nic.IovecRegion, packed, dst []byte) (nic.Result, error) {
	u.mu.Lock()
	defer u.mu.Unlock()

	var total int64
	for _, r := range regions {
		total += r.Size
	}
	if total != int64(len(packed)) {
		return nic.Result{}, fmt.Errorf("core: udp backend iovec regions cover %d bytes, message is %d", total, len(packed))
	}
	id := u.tx.NextMessageID()
	if err := u.tx.Send(id, transport.EncodeWireMeta(transport.WireMeta{}), packed); err != nil {
		return nic.Result{}, fmt.Errorf("core: udp backend iovec: %w", err)
	}
	var res nic.Result
	idx := map[uint32]int{id: 0}
	err := u.drainInto(1, idx, func(_ int, msg transport.Message) {
		var pos int64
		for _, r := range regions {
			copy(dst[r.Offset:r.Offset+r.Size], msg.Payload[pos:pos+r.Size])
			pos += r.Size
		}
		cost := hostcpu.CopyCost(env.Host, pos) + hostcpu.WalkCost(env.Host, int64(len(regions)))
		res = nic.Result{
			MsgBytes: pos,
			Done:     cost,
			ProcTime: cost,
			DMA:      nic.DMAStats{Writes: int64(len(regions)), Bytes: pos},
		}
	})
	if err != nil {
		return nic.Result{}, err
	}
	return res, nil
}
