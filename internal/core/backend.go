package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/fabric"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// BackendEnv carries the session configuration a backend needs to execute
// a flush: the device model and the host CPU profile.
type BackendEnv struct {
	NIC  nic.Config
	Host hostcpu.Config
}

// BackendMessage is one posted message in the backend exchange format. The
// contract is the committed datatype's plan: Type/Count define the scatter
// layout (ddt lowers its region program at commit; ForEachBlock and Unpack
// replay it), Packed is the wire stream and Dst the destination buffer.
// Simulated backends additionally receive the portal-table entry whose
// execution context holds the offload state built at commit time; host
// backends execute the plan directly.
type BackendMessage struct {
	Type  *ddt.Type
	Count int

	// PT/Bits bind the message to its match-list entry. For offloaded
	// strategies the matched entry carries the sPIN execution context; a
	// nil-context entry takes the non-processing RDMA path into Region.
	PT     *portals.PT
	Bits   portals.MatchBits
	Region portals.HostRegion

	Packed []byte
	Dst    []byte

	// Start is when the message's first bit leaves its sender; Order
	// optionally permutes packet delivery; Arrivals, when non-nil, is an
	// explicit schedule overriding both (coupled transfers).
	Start    sim.Time
	Order    []int
	Arrivals []fabric.Arrival
}

// BackendSend is one posted send in the backend exchange format: the
// committed datatype (whose plan defines the gather layout), the host
// source image, and the fully-prepared device message.
// Msg.Packed is the outgoing wire stream; for non-gathered kinds
// (TxPacked, TxStreaming) the backend performs the functional pack itself
// before the timing pass, for TxProcessPut the gather handlers fill it.
type BackendSend struct {
	Type  *ddt.Type
	Count int
	Src   []byte
	Msg   nic.TxMessage
}

// BackendTransfer couples one send with the receive it paces: the send's
// packet injections cross the fabric and become the receive's arrival
// schedule. Recv.Packed must alias the wire stream the send produces.
type BackendTransfer struct {
	Send BackendSend
	Recv BackendMessage
}

// Backend executes the data movement of posted messages. SimBackend — the
// default — replays each message through the simulated sPIN NIC; other
// backends may execute the same committed plans against real resources
// (host memory today; iovec lists or kernel-bypass paths tomorrow). All
// backends must land byte-identical buffer contents — the differential
// tests hold receives to the reference ddt.Unpack and sends to the
// reference ddt.Pack.
type Backend interface {
	// Name labels the backend ("sim", "mem").
	Name() string
	// Flush executes msgs — all posted to one endpoint — in a single
	// residency pass and returns per-message device-level results in
	// input order.
	Flush(env BackendEnv, msgs []BackendMessage) ([]nic.Result, error)
	// FlushSends executes sends — all posted to one endpoint — against
	// one shared outbound device and returns per-message results in input
	// order.
	FlushSends(env BackendEnv, sends []BackendSend) ([]nic.SendResult, error)
	// Transfer executes coupled end-to-end transfers: senders share one
	// outbound device, receivers one inbound device, and each receive's
	// arrival schedule is paced by its send through the fabric.
	Transfer(env BackendEnv, xfers []BackendTransfer) ([]nic.SendResult, []nic.Result, error)
	// Iovec executes the Portals-4 scatter-list baseline for one message.
	Iovec(env BackendEnv, regions []nic.IovecRegion, packed, dst []byte) (nic.Result, error)
}

// SimBackend executes messages on the simulated sPIN NIC: the paper's
// timing models (fabric, inbound parser, HPUs, DMA, PCIe), with all
// messages of one flush sharing a single device residency pass. Each call
// is a one-endpoint topology run by nic.RunExchange.
type SimBackend struct{}

// Name implements Backend.
func (SimBackend) Name() string { return "sim" }

// Flush implements Backend on the NIC simulator: a receive batch, every
// message contending for one inbound device.
func (SimBackend) Flush(env BackendEnv, msgs []BackendMessage) ([]nic.Result, error) {
	batch := make([]nic.BatchMessage, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		batch[i] = nic.BatchMessage{
			PT:       m.PT,
			Bits:     m.Bits,
			Packed:   m.Packed,
			Host:     m.Dst,
			Start:    m.Start,
			Order:    m.Order,
			Arrivals: m.Arrivals,
		}
	}
	res, err := nic.RunExchange([]nic.ExchangeEndpoint{{Cfg: env.NIC, Recvs: batch}}, 1)
	if err != nil {
		return nil, err
	}
	return res.Recvs[0], nil
}

// Iovec implements Backend on the NIC simulator.
func (SimBackend) Iovec(env BackendEnv, regions []nic.IovecRegion, packed, dst []byte) (nic.Result, error) {
	return nic.ReceiveIovec(env.NIC, regions, packed, dst)
}

// stageSend performs the functional pack of a non-gathered send: the CPU
// (TxPacked) or the announcing walk (TxStreaming) materializes the wire
// stream before the timing pass; gather handlers (TxProcessPut) fill it
// during the simulation instead.
func stageSend(s *BackendSend) error {
	if s.Msg.Kind == nic.TxProcessPut || s.Type == nil || s.Msg.Packed == nil {
		return nil
	}
	_, err := ddt.PackInto(s.Type, s.Count, s.Src, s.Msg.Packed)
	return err
}

// FlushSends implements Backend on the NIC simulator: a send batch, every
// send running against ONE outbound device, contending for its HPUs, host
// read path, injection link and NIC memory. The sends are uncoupled: their
// packets leave into the unmodeled fabric.
func (SimBackend) FlushSends(env BackendEnv, sends []BackendSend) ([]nic.SendResult, error) {
	batch := make([]nic.ExchangeSend, len(sends))
	for i := range sends {
		if err := stageSend(&sends[i]); err != nil {
			return nil, fmt.Errorf("core: send %d: %w", i, err)
		}
		batch[i] = nic.ExchangeSend{Msg: sends[i].Msg, Dst: -1}
	}
	res, err := nic.RunExchange([]nic.ExchangeEndpoint{{Cfg: env.NIC, Sends: batch}}, 1)
	if err != nil {
		return nil, err
	}
	return res.Sends[0], nil
}

// Transfer implements Backend on the NIC simulator: coupled transfers on
// one endpoint, each send pacing the endpoint's own receive through the
// fabric, tx and rx devices in one simulation.
func (SimBackend) Transfer(env BackendEnv, xfers []BackendTransfer) ([]nic.SendResult, []nic.Result, error) {
	sends := make([]nic.ExchangeSend, len(xfers))
	recvs := make([]nic.BatchMessage, len(xfers))
	for i := range xfers {
		x := &xfers[i]
		if err := stageSend(&x.Send); err != nil {
			return nil, nil, fmt.Errorf("core: transfer %d: %w", i, err)
		}
		sends[i] = nic.ExchangeSend{Msg: x.Send.Msg, Dst: 0, DstRecv: i}
		recvs[i] = nic.BatchMessage{PT: x.Recv.PT, Bits: x.Recv.Bits, Packed: x.Recv.Packed, Host: x.Recv.Dst}
	}
	res, err := nic.RunExchange([]nic.ExchangeEndpoint{{Cfg: env.NIC, Recvs: recvs, Sends: sends}}, 1)
	if err != nil {
		return nil, nil, err
	}
	return res.Sends[0], res.Recvs[0], nil
}

// MemBackend executes messages directly on host memory: each posted
// message's packed stream is scattered into its destination buffer by
// replaying the committed type's region program on the CPU — no
// NIC model involved. It is the first non-simulated backend and the
// differential-testing oracle for SimBackend: both must produce identical
// buffers. Reported times come from the host CPU cost model (an unpack of
// the message), so results stay deterministic.
type MemBackend struct{}

// Name implements Backend.
func (MemBackend) Name() string { return "mem" }

// Flush implements Backend by unpacking every message on the CPU.
func (MemBackend) Flush(env BackendEnv, msgs []BackendMessage) ([]nic.Result, error) {
	results := make([]nic.Result, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		res := nic.Result{MsgBytes: int64(len(m.Packed)), FirstByte: m.Start}
		if m.Type != nil {
			if err := ddt.Unpack(m.Type, m.Count, m.Packed, m.Dst); err != nil {
				return nil, fmt.Errorf("core: mem backend message %d: %w", i, err)
			}
			cost := hostcpu.UnpackCost(env.Host, m.Type, m.Count)
			res.Done = m.Start + cost.Time
			res.DMA = nic.DMAStats{Writes: m.Type.TotalBlocks(m.Count), Bytes: int64(len(m.Packed))}
		} else {
			// Non-processing path: the packed stream lands contiguously at
			// the region offset.
			copy(m.Dst[m.Region.Offset:], m.Packed)
			cost := hostcpu.CopyCost(env.Host, int64(len(m.Packed)))
			res.Done = m.Start + cost
			res.DMA = nic.DMAStats{Writes: 1, Bytes: int64(len(m.Packed))}
		}
		res.ProcTime = res.Done - res.FirstByte
		results[i] = res
	}
	return results, nil
}

// memSend packs one message on the CPU and reports host-model timing.
func memSend(env BackendEnv, s *BackendSend, i int) (nic.SendResult, error) {
	if s.Type == nil {
		return nic.SendResult{}, fmt.Errorf("core: mem backend send %d needs a datatype", i)
	}
	if s.Msg.Packed != nil {
		if _, err := ddt.PackInto(s.Type, s.Count, s.Src, s.Msg.Packed); err != nil {
			return nic.SendResult{}, fmt.Errorf("core: mem backend send %d: %w", i, err)
		}
	}
	pack := hostcpu.PackCost(env.Host, s.Type, s.Count)
	return nic.SendResult{
		MsgBytes: s.Msg.MsgBytes,
		CPUBusy:  pack.Time,
		Injected: s.Msg.Start + pack.Time,
		Regions:  s.Type.TotalBlocks(s.Count),
	}, nil
}

// FlushSends implements Backend by packing on the CPU: every send is a
// reference ddt.Pack of the committed type — the differential
// oracle for the simulated gather handlers.
func (MemBackend) FlushSends(env BackendEnv, sends []BackendSend) ([]nic.SendResult, error) {
	results := make([]nic.SendResult, len(sends))
	for i := range sends {
		r, err := memSend(env, &sends[i], i)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}

// Transfer implements Backend as pack-then-unpack on the CPU: the
// reference pipeline every coupled simulated transfer must reproduce
// byte for byte.
func (MemBackend) Transfer(env BackendEnv, xfers []BackendTransfer) ([]nic.SendResult, []nic.Result, error) {
	sends := make([]nic.SendResult, len(xfers))
	recvs := make([]nic.Result, len(xfers))
	for i := range xfers {
		x := &xfers[i]
		sr, err := memSend(env, &x.Send, i)
		if err != nil {
			return nil, nil, err
		}
		sends[i] = sr
		m := &x.Recv
		rr := nic.Result{MsgBytes: int64(len(m.Packed)), FirstByte: sr.Injected}
		if m.Type != nil {
			if err := ddt.Unpack(m.Type, m.Count, m.Packed, m.Dst); err != nil {
				return nil, nil, fmt.Errorf("core: mem backend transfer %d: %w", i, err)
			}
			cost := hostcpu.UnpackCost(env.Host, m.Type, m.Count)
			rr.Done = sr.Injected + cost.Time
			rr.DMA = nic.DMAStats{Writes: m.Type.TotalBlocks(m.Count), Bytes: int64(len(m.Packed))}
		} else {
			copy(m.Dst[m.Region.Offset:], m.Packed)
			rr.Done = sr.Injected + hostcpu.CopyCost(env.Host, int64(len(m.Packed)))
			rr.DMA = nic.DMAStats{Writes: 1, Bytes: int64(len(m.Packed))}
		}
		rr.ProcTime = rr.Done - rr.FirstByte
		recvs[i] = rr
	}
	return sends, recvs, nil
}

// Iovec implements Backend by scattering the region list on the CPU.
func (MemBackend) Iovec(env BackendEnv, regions []nic.IovecRegion, packed, dst []byte) (nic.Result, error) {
	var total int64
	for _, r := range regions {
		total += r.Size
	}
	if total != int64(len(packed)) {
		return nic.Result{}, fmt.Errorf("core: mem backend iovec regions cover %d bytes, message is %d", total, len(packed))
	}
	var pos int64
	for _, r := range regions {
		copy(dst[r.Offset:r.Offset+r.Size], packed[pos:pos+r.Size])
		pos += r.Size
	}
	cost := hostcpu.CopyCost(env.Host, pos) + hostcpu.WalkCost(env.Host, int64(len(regions)))
	return nic.Result{
		MsgBytes: pos,
		Done:     cost,
		ProcTime: cost,
		DMA:      nic.DMAStats{Writes: int64(len(regions)), Bytes: pos},
	}, nil
}
