package nic

import (
	"errors"

	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// SendResult reports one sender-side simulation (the three tiles of the
// paper's Fig. 4), produced by the outbound device model.
type SendResult struct {
	MsgBytes int64
	// Injected is when the last bit of the message left the sender NIC.
	Injected sim.Time
	// CPUBusy is the sender CPU time consumed by datatype processing
	// (packing or region identification); the paper's motivation for
	// outbound sPIN is driving this to zero.
	CPUBusy sim.Time
	// HPUBusy is the sender-NIC handler time (outbound sPIN only).
	HPUBusy sim.Time
	// HandlerRuns counts gather-handler executions (outbound sPIN only).
	HandlerRuns int
	// Regions is the number of contiguous source regions processed.
	Regions int64
	// PacketInjections holds the time each packet finished leaving the
	// NIC, in stream order, for coupling with a receiver simulation.
	PacketInjections []sim.Time
}

// ThroughputGbps returns message bits over injection time.
func (s SendResult) ThroughputGbps() float64 {
	if s.Injected <= 0 {
		return 0
	}
	return float64(s.MsgBytes) * 8 / s.Injected.Seconds() / 1e9
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
