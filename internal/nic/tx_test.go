package nic

import (
	"bytes"
	"reflect"
	"testing"

	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// gatherCtx returns a minimal gather context with a fixed handler runtime.
func gatherCtx(runtime sim.Time) *spin.ExecutionContext {
	return &spin.ExecutionContext{
		Name: "test-gather",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			return spin.Result{Runtime: runtime}
		},
	}
}

// TestSendBatchContention pins the tentpole's acceptance criterion: two
// senders sharing one outbound device are measurably slower than one —
// the wire serializes their packets, so the batch's last injection is
// close to twice the solo injection time.
func TestSendBatchContention(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(1 << 20)
	mk := func() TxMessage {
		return TxMessage{Kind: TxProcessPut, MsgBytes: msg, Ctx: gatherCtx(500 * sim.Nanosecond)}
	}
	solo, err := sendTopology(cfg, []TxMessage{mk()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	both, err := sendTopology(cfg, []TxMessage{mk(), mk()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := both[0].Injected
	if both[1].Injected > last {
		last = both[1].Injected
	}
	if last < solo[0].Injected*3/2 {
		t.Fatalf("two senders on one device finished at %v, solo at %v: no contention visible",
			last, solo[0].Injected)
	}
	if last > solo[0].Injected*5/2 {
		t.Fatalf("two senders at %v, over 2.5x the solo %v: contention model off", last, solo[0].Injected)
	}
	// The device is work-conserving FIFO: the first message keeps its solo
	// time, the second absorbs the shared-wire delay. Injections stay
	// strictly increasing per message.
	if both[0].Injected != solo[0].Injected {
		t.Fatalf("first batched message at %v, solo at %v", both[0].Injected, solo[0].Injected)
	}
	if both[1].Injected <= solo[0].Injected {
		t.Fatalf("second batched message at %v not slower than solo %v", both[1].Injected, solo[0].Injected)
	}
	for m, r := range both {
		for i := 1; i < len(r.PacketInjections); i++ {
			if r.PacketInjections[i] <= r.PacketInjections[i-1] {
				t.Fatalf("message %d packet %d injected at %v, not after packet %d at %v",
					m, i, r.PacketInjections[i], i-1, r.PacketInjections[i-1])
			}
		}
	}
}

// TestSendBatchDisjointMatchesSolo: messages whose device occupancy does
// not overlap report exactly what an isolated send reports (shifted by
// Start) — the batching itself costs nothing.
func TestSendBatchDisjointMatchesSolo(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(256 << 10)
	const gap = 10 * sim.Millisecond
	solo, err := sendTopology(cfg, []TxMessage{{Kind: TxProcessPut, MsgBytes: msg, Ctx: gatherCtx(500 * sim.Nanosecond)}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sendTopology(cfg, []TxMessage{
		{Kind: TxProcessPut, MsgBytes: msg, Ctx: gatherCtx(500 * sim.Nanosecond)},
		{Kind: TxProcessPut, MsgBytes: msg, Ctx: gatherCtx(500 * sim.Nanosecond), Start: gap},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Injected != solo[0].Injected {
		t.Fatalf("first batched message injected at %v, solo at %v", batch[0].Injected, solo[0].Injected)
	}
	if batch[1].Injected != solo[0].Injected+gap {
		t.Fatalf("second batched message injected at %v, want solo+gap %v", batch[1].Injected, solo[0].Injected+gap)
	}
}

// TestSendBatchNICMemory: gather contexts of a batch must fit NIC memory
// together; one shared context is counted once.
func TestSendBatchNICMemory(t *testing.T) {
	cfg := DefaultConfig()
	big := gatherCtx(100 * sim.Nanosecond)
	big.NICMemBytes = cfg.NICMemBytes/2 + 1
	if _, err := sendTopology(cfg, []TxMessage{
		{Kind: TxProcessPut, MsgBytes: 4096, Ctx: big},
		{Kind: TxProcessPut, MsgBytes: 4096, Ctx: big},
	}, 1); err != nil {
		t.Fatalf("one shared context must be counted once: %v", err)
	}
	other := gatherCtx(100 * sim.Nanosecond)
	other.NICMemBytes = cfg.NICMemBytes/2 + 1
	if _, err := sendTopology(cfg, []TxMessage{
		{Kind: TxProcessPut, MsgBytes: 4096, Ctx: big},
		{Kind: TxProcessPut, MsgBytes: 4096, Ctx: other},
	}, 1); err == nil {
		t.Fatal("two over-half contexts fit NIC memory together")
	}
}

// rdmaPT returns a portal table with one plain (non-processing) entry.
func rdmaPT(length int64) (*portals.PT, error) {
	ni := portals.NewNI(1)
	pt, err := ni.PT(0)
	if err != nil {
		return nil, err
	}
	err = pt.Append(portals.PriorityList, &portals.ME{
		Match: 1, UseOnce: true, Region: portals.HostRegion{Length: length},
	})
	return pt, err
}

// TestRunCoupledMatchesDecoupled: for a single transfer, coupling the tx
// and rx devices in one endpoint must reproduce exactly the two-stage
// composition (send, then receive with arrivals = injections + wire) —
// the coupled topology generalizes the pipeline, it does not re-tune it.
func TestRunCoupledMatchesDecoupled(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(512 << 10)
	packed := make([]byte, msg)
	for i := range packed {
		packed[i] = byte(i * 31)
	}

	sendRes, err := SendPacked(cfg, msg, 30*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := cfg.Fabric.Packetize(msg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]fabric.Arrival, len(pkts))
	for i := range pkts {
		arrivals[i] = fabric.Arrival{Packet: pkts[i], At: sendRes.PacketInjections[i] + cfg.Fabric.WireLatency}
	}
	pt, err := rdmaPT(msg)
	if err != nil {
		t.Fatal(err)
	}
	hostA := make([]byte, msg)
	decoupled, err := recvTopology(cfg, []BatchMessage{{PT: pt, Bits: 1, Packed: packed, Host: hostA, Arrivals: arrivals}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	recvRes := decoupled[0]

	pt2, err := rdmaPT(msg)
	if err != nil {
		t.Fatal(err)
	}
	hostB := make([]byte, msg)
	sends, recvs, err := coupledTopology(cfg,
		[]TxMessage{{Kind: TxPacked, MsgBytes: msg, PackTime: 30 * sim.Microsecond}},
		[]BatchMessage{{PT: pt2, Bits: 1, Packed: packed, Host: hostB}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sends[0].Injected != sendRes.Injected {
		t.Fatalf("coupled injection %v, decoupled %v", sends[0].Injected, sendRes.Injected)
	}
	if recvs[0].Done != recvRes.Done || recvs[0].FirstByte != recvRes.FirstByte || recvs[0].ProcTime != recvRes.ProcTime {
		t.Fatalf("coupled receive %+v, decoupled %+v", recvs[0], recvRes)
	}
	for i := range hostA {
		if hostA[i] != hostB[i] {
			t.Fatalf("buffers differ at %d", i)
		}
	}
}

// TestRunExchangeDeterminism: a 3-rank ring exchange fires identical
// results at every executor width, and the pre-staged streams land
// byte-identically in every destination buffer.
func TestRunExchangeDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(128 << 10)
	const ranks = 3

	build := func() []ExchangeEndpoint {
		eps := make([]ExchangeEndpoint, ranks)
		for r := 0; r < ranks; r++ {
			packed := make([]byte, msg)
			for i := range packed {
				packed[i] = byte(i + r)
			}
			pt, err := rdmaPT(msg)
			if err != nil {
				t.Fatal(err)
			}
			eps[r] = ExchangeEndpoint{
				Cfg:   cfg,
				Recvs: []BatchMessage{{PT: pt, Bits: 1, Packed: packed, Host: make([]byte, msg)}},
			}
		}
		for r := 0; r < ranks; r++ {
			// Rank r sends to its right neighbor's single receive slot.
			eps[r].Sends = []ExchangeSend{{
				Msg: TxMessage{Kind: TxProcessPut, MsgBytes: msg, Ctx: gatherCtx(400 * sim.Nanosecond)},
				Dst: (r + 1) % ranks, DstRecv: 0,
			}}
		}
		return eps
	}

	serial, err := RunExchange(build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExchange(build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Makespan != parallel.Makespan || serial.Windows != parallel.Windows {
		t.Fatalf("serial makespan %v/%d windows, parallel %v/%d",
			serial.Makespan, serial.Windows, parallel.Makespan, parallel.Windows)
	}
	for r := 0; r < ranks; r++ {
		if serial.Recvs[r][0].Done != parallel.Recvs[r][0].Done {
			t.Fatalf("rank %d: serial done %v, parallel %v", r, serial.Recvs[r][0].Done, parallel.Recvs[r][0].Done)
		}
		if serial.Sends[r][0].Injected != parallel.Sends[r][0].Injected {
			t.Fatalf("rank %d: serial injected %v, parallel %v", r, serial.Sends[r][0].Injected, parallel.Sends[r][0].Injected)
		}
		if serial.Recvs[r][0].Done <= serial.Sends[(r+ranks-1)%ranks][0].Injected {
			t.Fatalf("rank %d receive done %v before its sender finished injecting %v",
				r, serial.Recvs[r][0].Done, serial.Sends[(r+ranks-1)%ranks][0].Injected)
		}
	}
}

// TestRunExchangeCouplingValidation pins the coupling contract: a
// materialized wire stream couples only within its own endpoint, a
// streamed send cannot feed a pre-staged receive (the two would alias the
// same bytes), and a coupled receive with neither a streamed sender nor a
// pre-staged stream has no wire bytes to scatter. Uncoupled sends and
// same-endpoint materialized couplings are the one-NIC topologies and run.
func TestRunExchangeCouplingValidation(t *testing.T) {
	cfg := DefaultConfig()
	build := func(src, sndPacked, rcvPacked []byte) []ExchangeEndpoint {
		pt, err := rdmaPT(4096)
		if err != nil {
			t.Fatal(err)
		}
		return []ExchangeEndpoint{
			{Cfg: cfg, Recvs: []BatchMessage{{PT: pt, Bits: 1, Packed: rcvPacked, Host: make([]byte, 4096)}}},
			{Cfg: cfg, Sends: []ExchangeSend{{
				Msg: TxMessage{Kind: TxProcessPut, MsgBytes: 4096, Ctx: gatherCtx(100), Src: src, Packed: sndPacked},
				Dst: 0, DstRecv: 0,
			}}},
		}
	}
	buf := make([]byte, 4096)
	if _, err := RunExchange(build(nil, buf, buf), 1); err == nil {
		t.Fatal("materialized send stream accepted across domains")
	}
	if _, err := RunExchange(build(buf, nil, buf), 1); err == nil {
		t.Fatal("functional send into a pre-staged receive accepted")
	}
	if _, err := RunExchange(build(nil, nil, nil), 1); err == nil {
		t.Fatal("coupled receive with no wire bytes accepted")
	}

	uncoupled := build(nil, buf, buf)
	uncoupled[1].Sends[0].Dst = -1
	res, err := RunExchange(uncoupled, 1)
	if err != nil {
		t.Fatalf("uncoupled send rejected: %v", err)
	}
	if res.Sends[1][0].Injected <= 0 || res.Recvs[0][0].Done <= 0 {
		t.Fatalf("uncoupled run did not complete: %+v", res)
	}

	// A same-endpoint materialized coupling: the gather fills the stream
	// the endpoint's own receive aliases.
	local := func() ([]ExchangeEndpoint, []byte) {
		src := randPacked(4096, 5)
		wire := make([]byte, 4096)
		pt, err := rdmaPT(4096)
		if err != nil {
			t.Fatal(err)
		}
		host := make([]byte, 4096)
		return []ExchangeEndpoint{{
			Cfg:   cfg,
			Recvs: []BatchMessage{{PT: pt, Bits: 1, Packed: wire, Host: host}},
			Sends: []ExchangeSend{{
				Msg: TxMessage{Kind: TxProcessPut, MsgBytes: 4096, Ctx: copyGatherCtx(100), Src: src, Packed: wire},
				Dst: 0, DstRecv: 0,
			}},
		}}, src
	}
	var runs [2]ExchangeResult
	for i, workers := range []int{1, 4} {
		eps, src := local()
		if runs[i], err = RunExchange(eps, workers); err != nil {
			t.Fatalf("workers=%d: same-endpoint materialized send rejected: %v", workers, err)
		}
		if !bytes.Equal(eps[0].Recvs[0].Host, src) {
			t.Fatalf("workers=%d: delivered bytes differ from the gathered source", workers)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("same-endpoint coupling differs across executor widths:\n1: %+v\n4: %+v", runs[0], runs[1])
	}
}
