package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// TransferRequest describes a full end-to-end non-contiguous transfer: the
// sender gathers with one strategy, the receiver scatters with another —
// the complete matrix of the paper's Fig. 4. Sender and receiver datatypes
// may differ (e.g. rows out, columns in: an on-the-fly transpose) as long
// as their packed sizes match.
type TransferRequest struct {
	Send SendStrategy
	Recv Strategy
	// SendType/RecvType describe the source gather and destination
	// scatter layouts; RecvType defaults to SendType.
	SendType *ddt.Type
	RecvType *ddt.Type
	Count    int

	NIC     nic.Config
	Cost    CostModel
	Host    hostcpu.Config
	Epsilon float64
	Verify  bool
	Seed    int64
}

// NewTransferRequest returns a TransferRequest with default configuration.
func NewTransferRequest(send SendStrategy, recv Strategy, typ *ddt.Type, count int) TransferRequest {
	return TransferRequest{
		Send: send, Recv: recv, SendType: typ, Count: count,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		Epsilon: 0.2, Verify: true, Seed: 1,
	}
}

// TransferResult reports an end-to-end transfer.
type TransferResult struct {
	Sender   nic.SendResult
	Receiver nic.Result
	// Total is the makespan: sender CPU start to the last byte landing in
	// the receive buffer.
	Total sim.Time
	// Verified is set when the receive buffer matched the reference
	// pack-then-unpack pipeline byte-for-byte.
	Verified bool
}

// ThroughputGbps returns message bits over the end-to-end makespan.
func (r TransferResult) ThroughputGbps() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Receiver.MsgBytes) * 8 / r.Total.Seconds() / 1e9
}

// RunTransfer simulates the whole path — gather, wire, scatter. It is a
// thin one-shot wrapper over the private package session (see Run).
func RunTransfer(req TransferRequest) (TransferResult, error) {
	return oneShot.RunTransfer(req)
}

// RunTransfer executes one coupled transfer on the session: the sender-
// side device gathers the source layout (through the committed block
// program for outbound sPIN), each packet crosses the fabric as its
// injection completes, and the receiver-side device scatters the arrivals
// — tx and rx run in ONE simulation on the session backend instead of
// summing independent cost models.
func (s *Session) RunTransfer(req TransferRequest) (TransferResult, error) {
	if req.RecvType == nil {
		req.RecvType = req.SendType
	}
	sendTyp := req.SendType.Commit()
	recvTyp := req.RecvType.Commit()
	if req.Count <= 0 {
		return TransferResult{}, fmt.Errorf("core: count %d", req.Count)
	}
	msg := sendTyp.Size() * int64(req.Count)
	if msg <= 0 {
		return TransferResult{}, fmt.Errorf("core: empty message")
	}
	if recvTyp.Size()*int64(req.Count) != msg {
		return TransferResult{}, fmt.Errorf("core: send type packs %d bytes, receive type expects %d",
			msg, recvTyp.Size()*int64(req.Count))
	}
	if lo, _ := recvTyp.Footprint(req.Count); lo < 0 {
		return TransferResult{}, fmt.Errorf("core: receive datatype has negative lower bound %d", lo)
	}
	sLo, sHi := sendTyp.Footprint(req.Count)
	if sLo < 0 {
		return TransferResult{}, fmt.Errorf("core: send datatype has negative lower bound %d", sLo)
	}

	p := BuildParams{Type: sendTyp, Count: req.Count, NIC: req.NIC, Cost: req.Cost, Host: req.Host}
	recipe, err := s.caches.sendRecipe(req.Send, p)
	if err != nil {
		return TransferResult{}, err
	}
	src := payloadFor(req.Seed, sHi) // shared read-only source image
	packedBuf := getBuf(msg)
	packed := *packedBuf
	send := BackendSend{Type: sendTyp, Count: req.Count, Src: src, Msg: recipe.message(0, src, packed)}

	_, rHi := recvTyp.Footprint(req.Count)
	dstBuf := getZeroBuf(rHi)
	p.Type, p.Epsilon = recvTyp, req.Epsilon
	recv, sendRes, err := s.receive(req.Recv, p, packed, *dstBuf, nil, &send)
	if err != nil {
		return TransferResult{}, err
	}
	res := TransferResult{Sender: sendRes, Receiver: recv.NIC, Total: recv.NIC.Done + recv.UnpackCPU}

	if req.Verify {
		// A gathered wire stream was produced by the send-side handlers:
		// hold it to the reference pack of the source image before
		// trusting it as the receiver's ground truth. The CPU-side kinds
		// produce the stream with that very reference pack, so there is
		// nothing to compare for them.
		if recipe.kind == nic.TxProcessPut {
			same, err := verifyWire(sendTyp, req.Count, src, packed)
			if err != nil {
				return TransferResult{}, err
			}
			if !same {
				return TransferResult{}, fmt.Errorf("core: transfer %v->%v: wire stream differs from reference pack", req.Send, req.Recv)
			}
		}
		if err := verifyRecv(recvTyp, req.Count, packed, *dstBuf, rHi, dstBuf); err != nil {
			return TransferResult{}, fmt.Errorf("core: transfer %v->%v: %w", req.Send, req.Recv, err)
		}
		res.Verified = true
	} else {
		putBuf(dstBuf)
	}
	putBuf(packedBuf)
	return res, nil
}
