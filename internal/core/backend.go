package core

import (
	"fmt"

	"spinddt/internal/ddt"
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

// BackendMessage is one posted receive in the backend exchange format.
// The contract is the committed datatype's plan: Type/Count define the
// scatter layout (ddt lowers its region program at commit; ForEachBlock
// and Unpack replay it), Packed is the wire stream and Dst the destination
// buffer. Simulated backends additionally receive the portal-table entry
// whose execution context holds the offload state built at commit time;
// host backends execute the plan directly.
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
	// optionally permutes packet delivery. A receive paced by a send
	// ignores both: its arrivals follow the send's injections.
	Start sim.Time
	Order []int
}

// BackendSend is one posted send in the backend exchange format: the
// committed datatype (whose plan defines the gather layout), the host
// source image, and the fully-prepared device message.
// Msg.Packed is the outgoing wire stream; for non-gathered kinds
// (TxPacked, TxStreaming) the backend performs the functional pack itself
// before the timing pass, for TxProcessPut the gather handlers fill it. A
// send with neither Msg.Src nor Msg.Packed runs timing-only.
type BackendSend struct {
	Type  *ddt.Type
	Count int
	Src   []byte
	Msg   nic.TxMessage
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
	// Exchange executes one batch posted to one endpoint and returns
	// per-message results in input order. Sends alone share one outbound
	// device; receives alone share one inbound residency pass. When both
	// are given they pair up: send i paces receive i through the fabric,
	// and recvs[i].Packed must alias the wire stream sends[i] produces.
	// Non-empty batches of unequal length are an error.
	Exchange(env BackendEnv, sends []BackendSend, recvs []BackendMessage) ([]nic.SendResult, []nic.Result, error)
	// Iovec executes the Portals-4 scatter-list baseline for one message.
	// regions is the layout's cached list, shared by every run of the
	// layout: an implementation only reads it.
	Iovec(env BackendEnv, regions []nic.IovecRegion, packed, dst []byte) (nic.Result, error)
}

// paired reports whether an Exchange batch pairs its sends with its
// receives, and rejects a pairing of unequal length.
func paired(sends []BackendSend, recvs []BackendMessage) (bool, error) {
	if len(sends) == 0 || len(recvs) == 0 {
		return false, nil
	}
	if len(sends) != len(recvs) {
		return false, fmt.Errorf("core: exchange pairs %d sends with %d receives", len(sends), len(recvs))
	}
	return true, nil
}

// SimBackend executes messages on the simulated sPIN NIC: the paper's
// timing models (fabric, inbound parser, HPUs, DMA, PCIe), with all
// messages of one batch sharing a single device residency pass. Each
// batch is a one-endpoint topology run by nic.RunExchange.
type SimBackend struct{}

// Name implements Backend.
func (SimBackend) Name() string { return "sim" }

// Exchange implements Backend on the NIC simulator with one RunExchange
// call: receives contend for the endpoint's inbound device, sends for its
// outbound device (HPUs, host read path, injection link, NIC memory). An
// unpaired send leaves into the unmodeled fabric; a paired one paces the
// endpoint's own receive, tx and rx devices in one simulation.
func (SimBackend) Exchange(env BackendEnv, sends []BackendSend, recvs []BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	pair, err := paired(sends, recvs)
	if err != nil {
		return nil, nil, err
	}
	ep := nic.ExchangeEndpoint{
		Cfg:   env.NIC,
		Sends: make([]nic.ExchangeSend, len(sends)),
		Recvs: make([]nic.BatchMessage, len(recvs)),
	}
	for i := range sends {
		if err := stageSend(&sends[i]); err != nil {
			return nil, nil, fmt.Errorf("core: send %d: %w", i, err)
		}
		ep.Sends[i] = nic.ExchangeSend{Msg: sends[i].Msg, Dst: -1}
		if pair {
			ep.Sends[i].Dst, ep.Sends[i].DstRecv = 0, i
		}
	}
	for i := range recvs {
		m := &recvs[i]
		ep.Recvs[i] = nic.BatchMessage{
			PT:     m.PT,
			Bits:   m.Bits,
			Packed: m.Packed,
			Host:   m.Dst,
			Start:  m.Start,
			Order:  m.Order,
		}
	}
	res, err := nic.RunExchange([]nic.ExchangeEndpoint{ep}, 1)
	if err != nil {
		return nil, nil, err
	}
	return res.Sends[0], res.Recvs[0], nil
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

// Exchange implements Backend on the CPU: every send is a reference
// ddt.Pack of the committed type, every receive a reference ddt.Unpack —
// the differential oracle for the simulated handlers. Sends run first; a
// paired receive starts when its send's injection ends.
func (MemBackend) Exchange(env BackendEnv, sends []BackendSend, recvs []BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	pair, err := paired(sends, recvs)
	if err != nil {
		return nil, nil, err
	}
	sendRes := make([]nic.SendResult, len(sends))
	for i := range sends {
		s := &sends[i]
		if s.Type == nil {
			return nil, nil, fmt.Errorf("core: mem backend send %d needs a datatype", i)
		}
		if s.Msg.Packed != nil {
			if _, err := ddt.PackInto(s.Type, s.Count, s.Src, s.Msg.Packed); err != nil {
				return nil, nil, fmt.Errorf("core: mem backend send %d: %w", i, err)
			}
		}
		pack := hostcpu.PackCost(env.Host, s.Type, s.Count)
		sendRes[i] = nic.SendResult{
			MsgBytes: s.Msg.MsgBytes,
			CPUBusy:  pack.Time,
			Injected: s.Msg.Start + pack.Time,
			Regions:  s.Type.TotalBlocks(s.Count),
		}
	}
	recvRes := make([]nic.Result, len(recvs))
	for i := range recvs {
		m := &recvs[i]
		start := m.Start
		if pair {
			start = sendRes[i].Injected
		}
		res := nic.Result{MsgBytes: int64(len(m.Packed)), FirstByte: start}
		if m.Type != nil {
			if err := ddt.Unpack(m.Type, m.Count, m.Packed, m.Dst); err != nil {
				return nil, nil, fmt.Errorf("core: mem backend receive %d: %w", i, err)
			}
			cost := hostcpu.UnpackCost(env.Host, m.Type, m.Count)
			res.Done = start + cost.Time
			res.DMA = nic.DMAStats{Writes: m.Type.TotalBlocks(m.Count), Bytes: int64(len(m.Packed))}
		} else {
			// Non-processing path: the packed stream lands contiguously at
			// the region offset.
			copy(m.Dst[m.Region.Offset:], m.Packed)
			res.Done = start + hostcpu.CopyCost(env.Host, int64(len(m.Packed)))
			res.DMA = nic.DMAStats{Writes: 1, Bytes: int64(len(m.Packed))}
		}
		res.ProcTime = res.Done - res.FirstByte
		recvRes[i] = res
	}
	return sendRes, recvRes, nil
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
