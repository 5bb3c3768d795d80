package nic

import (
	"errors"

	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// The one-message runners below are one-endpoint RunExchange topologies
// the tests and digests use as fixed entry points: a receive of one
// message and the paper's three Fig. 4 sender models, each a send batch
// of one.

// Receive simulates the arrival and processing of one message: packets are
// scheduled on the wire, matched through the portal table on the header
// packet, and either processed by the matched entry's sPIN execution
// context or delivered through the non-processing RDMA path. order
// optionally permutes packet delivery (nil = in-order). It is a receive
// batch of one message, run by RunExchange.
//
// host is the receiver's memory; an ME with a context scatters into it
// through handler DMA writes, a plain ME lands the packed stream at its
// region offset.
func Receive(cfg Config, pt *portals.PT, bits portals.MatchBits, packed, host []byte, order []int) (Result, error) {
	if len(packed) == 0 {
		return Result{}, errors.New("nic: empty message")
	}
	res, err := RunExchange([]ExchangeEndpoint{{Cfg: cfg, Recvs: []BatchMessage{{
		PT: pt, Bits: bits, Packed: packed, Host: host, Order: order,
	}}}}, 1)
	if err != nil {
		return Result{}, err
	}
	return res.Recvs[0][0], nil
}

// sendOne runs a single message as a send batch of one — the uncontended
// baseline the three classic entry points report.
func sendOne(cfg Config, m TxMessage) (SendResult, error) {
	res, err := RunExchange([]ExchangeEndpoint{{Cfg: cfg, Sends: []ExchangeSend{{Msg: m, Dst: -1}}}}, 1)
	if err != nil {
		return SendResult{}, err
	}
	return res.Sends[0][0], nil
}

// SendPacked models the classic pack+send (Fig. 4, left): the sender CPU
// packs the datatype into a contiguous buffer (packTime), then the NIC
// streams it, pipelining PCIe reads with line-rate injection.
func SendPacked(cfg Config, msgBytes int64, packTime sim.Time) (SendResult, error) {
	if msgBytes <= 0 {
		return SendResult{}, errors.New("nic: empty message")
	}
	return sendOne(cfg, TxMessage{Kind: TxPacked, MsgBytes: msgBytes, PackTime: packTime})
}

// SendStreaming models streaming puts (Fig. 4, middle): the sender CPU
// walks the datatype, announcing each contiguous region with
// PtlSPutStream while the NIC fetches and injects already-announced data.
// The CPU and the wire pipeline; whichever is slower paces the send.
func SendStreaming(cfg Config, regions []IovecRegion, findPerRegion sim.Time) (SendResult, error) {
	ready, cpu, msgBytes, err := StreamingSchedule(cfg, regions, findPerRegion)
	if err != nil {
		return SendResult{}, err
	}
	return sendOne(cfg, TxMessage{
		Kind: TxStreaming, MsgBytes: msgBytes,
		ReadyAt: ready, CPUTime: cpu, Regions: int64(len(regions)),
	})
}

// SendProcessPut models outbound sPIN (Fig. 4, right; Sec. 3.1.2): a
// PtlProcessPut creates the message packets on the NIC and runs the gather
// handler for each one on the sender HPUs; handlers locate the packet's
// source regions and stream them out. The sender CPU only issues the
// control-plane operation. The message has no source buffer, so gather
// runs timing-only: its Payload is nil and its Runtime paces the packet.
func SendProcessPut(cfg Config, msgBytes int64, gather spin.Handler) (SendResult, error) {
	if msgBytes <= 0 {
		return SendResult{}, errors.New("nic: empty message")
	}
	ctx := &spin.ExecutionContext{Name: "outbound", Payload: gather}
	return sendOne(cfg, TxMessage{Kind: TxProcessPut, MsgBytes: msgBytes, Ctx: ctx})
}
