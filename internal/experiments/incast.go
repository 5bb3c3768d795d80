package experiments

import (
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/sim"
)

// This file renders the incast figure: N senders concurrently target ONE
// receiver over the sharded exchange, the classic datacenter pathology the
// paper's batched device model is built to expose. Every sender gathers
// its non-contiguous source with sender-side sPIN handlers on its own
// outbound device, the fabric paces each packet across domains, and all N
// messages contend for the single receiver's inbound device — parser,
// HPUs, DMA channels and NIC memory. The receive offloads are pooled
// instances of ONE built template (the instantiate-not-rebuild layer), so
// the figure's setup cost stays flat as the fan-in grows.

// incastFlows lists the fan-in's messages, all first bits on the wire at
// t=0: endpoint 0 is the receiver (inbound batch of the whole fan-in, no
// sends), endpoints 1..senders each inject one message into their slot.
// The buffers come from the halo free-list.
func incastFlows(senders int, hi int64) []flow {
	flows := make([]flow, senders)
	for i := range flows {
		src := getHaloBuf(hi)
		fillHaloSrc(int64(i+1), src)
		flows[i] = flow{src: i + 1, dst: 0, slot: i, srcBuf: src, dstBuf: getZeroedHaloBuf(hi)}
	}
	return flows
}

// Incast reports the fan-in sweep: the sender count doubles from 1 to
// maxSenders while every sender keeps one msgBytes message to the single
// receiver. The slowdown column is last_done relative to the 1-sender
// baseline — an ideal receiver would scale it linearly with the fan-in
// (the wire can only deliver one message at a time); the excess over N is
// the contention the batched inbound device charges on top.
func Incast(maxSenders int, msgBytes int64) (*Table, error) {
	if maxSenders < 2 {
		return nil, fmt.Errorf("incast needs at least 2 senders, have %d", maxSenders)
	}
	typ := fig8Vector(2048, msgBytes)
	typ.Commit()
	lo, hi := typ.Footprint(1)
	if lo < 0 {
		return nil, fmt.Errorf("incast datatype has negative lower bound %d", lo)
	}

	t := &Table{
		Title: fmt.Sprintf("Incast: fan-in doubling 1 -> %d senders onto one receiver, %s per message (2 KiB blocks), RWCP offload", maxSenders, haloSizeLabel(msgBytes)),
		Note: "every sender gathers on its own outbound device; all messages contend for ONE inbound device at the receiver\n" +
			"(parser, HPUs, DMA, NIC memory); receive contexts are pooled instances of one built template;\n" +
			"slowdown_x = last_done / 1-sender last_done; every buffer byte-verified against the reference unpack",
		Header: []string{"senders", "msgs", "send_max_us", "recv_max_us", "last_done_us", "makespan_us", "windows", "slowdown_x", "verified"},
	}

	var base sim.Time
	for senders := 1; senders <= maxSenders; senders *= 2 {
		flows := incastFlows(senders, hi)
		st, err := runExchange(typ, msgBytes, senders+1, flows, core.RWCP)
		for _, f := range flows {
			putHaloBuf(f.srcBuf)
			putHaloBuf(f.dstBuf)
		}
		if err != nil {
			return nil, fmt.Errorf("incast %w", err)
		}
		if senders == 1 {
			base = st.lastDone
		}
		slowdown := 0.0
		if base > 0 {
			slowdown = float64(st.lastDone) / float64(base)
		}
		t.AddRow(d64(int64(senders)), d64(int64(senders)),
			usec(st.sendMax.Microseconds()),
			usec(st.recvMax.Microseconds()),
			usec(st.lastDone.Microseconds()),
			usec(st.makespan.Microseconds()),
			d64(int64(st.windows)),
			fmt.Sprintf("%.2f", slowdown),
			fmt.Sprintf("%d/%d", st.verified, senders))
	}
	return t, nil
}
