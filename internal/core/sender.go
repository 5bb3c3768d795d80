package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// SendStrategy selects a sender-side implementation (the paper's Fig. 4).
type SendStrategy int

// The three sender-side strategies.
const (
	// PackSend packs on the CPU, then sends the contiguous buffer.
	PackSend SendStrategy = iota
	// StreamingPuts streams regions as the CPU identifies them
	// (PtlSPutStart/PtlSPutStream, Sec. 3.1.1).
	StreamingPuts
	// OutboundSpin gathers on the sender NIC (PtlProcessPut, Sec. 3.1.2).
	OutboundSpin
)

func (s SendStrategy) String() string {
	switch s {
	case PackSend:
		return "Pack+Send"
	case StreamingPuts:
		return "StreamingPuts"
	case OutboundSpin:
		return "OutboundSpin"
	default:
		return fmt.Sprintf("SendStrategy(%d)", int(s))
	}
}

// AllSendStrategies lists the sender-side strategies.
var AllSendStrategies = []SendStrategy{PackSend, StreamingPuts, OutboundSpin}

// SendRequest describes a sender-side experiment.
type SendRequest struct {
	Strategy SendStrategy
	Type     *ddt.Type
	Count    int
	NIC      nic.Config
	Cost     CostModel
	Host     hostcpu.Config
}

// NewSendRequest returns a SendRequest with default configuration.
func NewSendRequest(s SendStrategy, typ *ddt.Type, count int) SendRequest {
	return SendRequest{
		Strategy: s, Type: typ, Count: count,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	}
}

// sendRecipe is a send strategy's device plan for one (type, count),
// built once and stamped into any number of messages: the CPU pack time
// (PackSend), the streaming announce schedule (StreamingPuts) or the
// gather offload (OutboundSpin).
type sendRecipe struct {
	kind     nic.TxKind
	msgBytes int64
	off      *TxOffload // TxProcessPut
	packTime sim.Time   // TxPacked
	ready    []sim.Time // TxStreaming (relative to Start)
	cpu      sim.Time
	regions  int64
}

// sendRecipe builds the recipe of strategy s for p.Count elements of the
// committed p.Type; the gather offload comes through the cache set.
func (c *offloadCaches) sendRecipe(s SendStrategy, p BuildParams) (sendRecipe, error) {
	r := sendRecipe{msgBytes: p.Type.Size() * int64(p.Count)}
	var err error
	switch s {
	case PackSend:
		r.kind = nic.TxPacked
		r.packTime = hostcpu.PackCost(p.Host, p.Type, p.Count).Time
	case StreamingPuts:
		r.kind = nic.TxStreaming
		regions := c.regions(p.Type, p.Count)
		r.ready, r.cpu, _, err = nic.StreamingSchedule(p.NIC, regions, p.Host.InterpPerBlock)
		r.regions = int64(len(regions))
	case OutboundSpin:
		r.kind = nic.TxProcessPut
		r.off, err = c.buildTxOffload(p)
	default:
		err = fmt.Errorf("core: unknown send strategy %v", s)
	}
	return r, err
}

// message stamps one device message of the recipe, issued at start. src
// and packed may both be nil to send timing-only.
func (r *sendRecipe) message(start sim.Time, src, packed []byte) nic.TxMessage {
	m := nic.TxMessage{
		Kind:     r.kind,
		MsgBytes: r.msgBytes,
		Start:    start,
		PackTime: r.packTime,
		ReadyAt:  r.ready,
		CPUTime:  r.cpu,
		Regions:  r.regions,
		Src:      src,
		Packed:   packed,
	}
	if r.off != nil {
		m.Ctx = r.off.Ctx
	}
	return m
}

// RunSend simulates sending count elements of the datatype with the chosen
// strategy. It is a thin one-shot wrapper over the private package session
// (see Run).
func RunSend(req SendRequest) (nic.SendResult, error) { return oneShot.RunSend(req) }

// RunSend executes one sender-side experiment on the session backend and
// returns the NIC-level result. The send is timing-only: it has no source
// image and produces no stream, so it models the injection path (pack and
// send, streaming puts, or the outbound sPIN gather Endpoint.Send
// installs, NIC-memory admission included) without moving data.
func (s *Session) RunSend(req SendRequest) (nic.SendResult, error) {
	typ := req.Type.Commit()
	if typ.Size()*int64(req.Count) <= 0 {
		return nic.SendResult{}, fmt.Errorf("core: empty message")
	}
	r, err := s.caches.sendRecipe(req.Strategy, BuildParams{
		Type: typ, Count: req.Count, NIC: req.NIC, Cost: req.Cost, Host: req.Host,
	})
	if err != nil {
		return nic.SendResult{}, err
	}
	env := BackendEnv{NIC: req.NIC, Host: req.Host}
	send := BackendSend{Type: typ, Count: req.Count, Msg: r.message(0, nil, nil)}
	res, _, err := s.backend.Exchange(env, []BackendSend{send}, nil)
	if err != nil {
		return nic.SendResult{}, err
	}
	return res[0], nil
}
