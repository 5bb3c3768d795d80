package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
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

// RunSend simulates sending count elements of the datatype with the chosen
// strategy. It is a thin one-shot wrapper over the private package session
// (see Run).
func RunSend(req SendRequest) (nic.SendResult, error) { return oneShot.RunSend(req) }

// RunSend executes one sender-side experiment on the session and returns
// the NIC-level result. The sender models (pack+send, streaming puts,
// outbound sPIN) are timing models of the injection path; they do not move
// receive-side data, so they run identically on every backend.
func (s *Session) RunSend(req SendRequest) (nic.SendResult, error) {
	typ := req.Type.Commit()
	msgSize := typ.Size() * int64(req.Count)
	if msgSize <= 0 {
		return nic.SendResult{}, fmt.Errorf("core: empty message")
	}
	switch req.Strategy {
	case PackSend:
		pack := hostcpu.PackCost(req.Host, typ, req.Count)
		return nic.SendPacked(req.NIC, msgSize, pack.Time)

	case StreamingPuts:
		return nic.SendStreaming(req.NIC, typ.Flatten(req.Count), req.Host.InterpPerBlock)

	case OutboundSpin:
		// Run the gather handler Endpoint.Send installs for the layout.
		gather := s.caches.specialized(req.Cost, typ, req.Count, false).gather
		return nic.SendProcessPut(req.NIC, msgSize, gather)

	default:
		return nic.SendResult{}, fmt.Errorf("core: unknown send strategy %v", req.Strategy)
	}
}
