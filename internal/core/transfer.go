package core

import (
	"bytes"
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
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

// buildBackendSend assembles the sender half of a coupled transfer: the
// strategy's device message (CPU pack, streaming announce schedule, or the
// NIC gather context built through the session caches) plus the functional
// source image. packed is the wire-stream buffer the send produces into.
func (s *Session) buildBackendSend(strategy SendStrategy, typ *ddt.Type, count int,
	nicCfg nic.Config, cost CostModel, host hostcpu.Config, src, packed []byte) (BackendSend, error) {
	msg := typ.Size() * int64(count)
	send := BackendSend{Type: typ, Count: count, Src: src}
	switch strategy {
	case PackSend:
		pack := hostcpu.PackCost(host, typ, count)
		send.Msg = nic.TxMessage{Kind: nic.TxPacked, MsgBytes: msg, PackTime: pack.Time, Packed: packed}

	case StreamingPuts:
		regions := typ.Flatten(count)
		ready, cpu, bytes, err := nic.StreamingSchedule(nicCfg, regions, host.InterpPerBlock)
		if err != nil {
			return BackendSend{}, err
		}
		send.Msg = nic.TxMessage{
			Kind: nic.TxStreaming, MsgBytes: bytes, Packed: packed,
			ReadyAt: ready, CPUTime: cpu, Regions: int64(len(regions)),
		}

	case OutboundSpin:
		txoff, err := s.caches.buildTxOffload(BuildParams{
			Type: typ, Count: count, NIC: nicCfg, Cost: cost, Host: host,
		})
		if err != nil {
			return BackendSend{}, err
		}
		send.Msg = nic.TxMessage{
			Kind: nic.TxProcessPut, MsgBytes: msg,
			Ctx: txoff.Ctx, Src: src, Packed: packed,
		}

	default:
		return BackendSend{}, fmt.Errorf("core: unknown send strategy %v", strategy)
	}
	return send, nil
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

	src := payloadFor(req.Seed, sHi) // shared read-only source image
	packedBuf := getBuf(msg)
	packed := *packedBuf
	send, err := s.buildBackendSend(req.Send, sendTyp, req.Count, req.NIC, req.Cost, req.Host, src, packed)
	if err != nil {
		return TransferResult{}, err
	}

	_, rHi := recvTyp.Footprint(req.Count)
	dstBuf := getZeroBuf(rHi)
	dst := *dstBuf
	env := BackendEnv{NIC: req.NIC, Host: req.Host}
	var res TransferResult

	switch req.Recv {
	case HostUnpack:
		stagingBuf := getBuf(msg)
		staging := *stagingBuf
		pt := singleMatchPT(&portals.ME{Match: 1, Region: portals.HostRegion{Length: msg}})
		sendRes, recvRes, err := s.transferOne(env, send, BackendMessage{
			PT: pt, Bits: 1, Region: portals.HostRegion{Length: msg},
			Packed: packed, Dst: staging,
		})
		if err != nil {
			return TransferResult{}, err
		}
		cost := hostcpu.UnpackCost(req.Host, recvTyp, req.Count)
		if err := ddt.Unpack(recvTyp, req.Count, staging, dst); err != nil {
			return TransferResult{}, err
		}
		putBuf(stagingBuf)
		res.Sender = sendRes
		res.Receiver = recvRes
		res.Total = recvRes.Done + cost.Time

	case PortalsIovec:
		return TransferResult{}, fmt.Errorf("core: the iovec baseline does not support coupled transfers")

	default:
		off, err := s.caches.buildOffload(req.Recv, BuildParams{
			Type: recvTyp, Count: req.Count,
			NIC: req.NIC, Cost: req.Cost, Host: req.Host, Epsilon: req.Epsilon,
		})
		if err != nil {
			return TransferResult{}, err
		}
		sendRes, recvRes, err := s.transferOne(env, send, BackendMessage{
			Type: recvTyp, Count: req.Count, PT: off.PT(), Bits: 1,
			Packed: packed, Dst: dst,
		})
		if err != nil {
			return TransferResult{}, err
		}
		res.Sender = sendRes
		res.Receiver = recvRes
		res.Total = recvRes.Done
		off.Release()
	}

	if req.Verify {
		// A gathered wire stream was produced by the send-side handlers:
		// hold it to the reference pack of the source image before
		// trusting it as the receiver's ground truth. The CPU-side kinds
		// produce the stream with that very reference pack, so there is
		// nothing to compare for them.
		if send.Msg.Kind == nic.TxProcessPut {
			want := getBuf(msg)
			if _, err := ddt.PackInto(sendTyp, req.Count, src, *want); err != nil {
				return TransferResult{}, err
			}
			same := bytes.Equal(packed, *want)
			putBuf(want)
			if !same {
				return TransferResult{}, fmt.Errorf("core: transfer %v->%v: wire stream differs from reference pack", req.Send, req.Recv)
			}
		}
		if err := verifyReference(recvTyp, req.Count, packed, dst, rHi); err != nil {
			return TransferResult{}, fmt.Errorf("core: transfer %v->%v: %w", req.Send, req.Recv, err)
		}
		res.Verified = true
		releaseRecvBuf(recvTyp, req.Count, dstBuf)
	} else {
		putBuf(dstBuf)
	}
	putBuf(packedBuf)
	return res, nil
}

// transferOne runs a single coupled transfer through the backend.
func (s *Session) transferOne(env BackendEnv, send BackendSend, recv BackendMessage) (nic.SendResult, nic.Result, error) {
	sends, recvs, err := s.backend.Transfer(env, []BackendTransfer{{Send: send, Recv: recv}})
	if err != nil {
		return nic.SendResult{}, nic.Result{}, err
	}
	return sends[0], recvs[0], nil
}
