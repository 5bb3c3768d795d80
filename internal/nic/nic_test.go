package nic

import (
	"bytes"
	"math/rand"
	"testing"

	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

func randPacked(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// passthroughCtx writes each payload at its stream offset with a fixed
// handler runtime: the simplest possible unpack.
func passthroughCtx(runtime sim.Time, policy spin.Policy) *spin.ExecutionContext {
	return &spin.ExecutionContext{
		Name: "passthrough",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			a.DMA.Write(a.StreamOff, a.Payload)
			return spin.Result{
				Runtime:   runtime,
				Breakdown: spin.Breakdown{Init: runtime / 4, Processing: runtime - runtime/4},
			}
		},
		Policy: policy,
	}
}

func newPT(t *testing.T, me *portals.ME) *portals.PT {
	t.Helper()
	ni := portals.NewNI(1)
	pt, err := ni.PT(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Append(portals.PriorityList, me); err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestRDMAPathDeliversBytes(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(3*2048+100, 1)
	host := make([]byte, len(packed)+64)
	pt := newPT(t, &portals.ME{Match: 5, Region: portals.HostRegion{Offset: 64, Length: int64(len(packed))}})

	res, err := Receive(cfg, pt, 5, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(host[64:64+len(packed)], packed) {
		t.Fatal("RDMA delivery corrupted the message")
	}
	if res.ProcTime <= 0 || res.Done <= res.FirstByte {
		t.Fatalf("times: %+v", res)
	}
	if res.HandlerRuns != 0 {
		t.Fatalf("RDMA path ran %d handlers", res.HandlerRuns)
	}
	evs := pt.Events()
	if len(evs) != 1 || evs[0].Kind != portals.EventPut {
		t.Fatalf("events = %v", evs)
	}
	if res.DMA.Writes != 4 || res.DMA.Bytes != int64(len(packed)) {
		t.Fatalf("DMA stats: %+v", res.DMA)
	}
}

func TestRDMALargeMessageNearLineRate(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(1 << 22) // 4 MiB
	packed := randPacked(int(msg), 2)
	host := make([]byte, msg)
	pt := newPT(t, &portals.ME{Match: 1})
	res, err := Receive(cfg, pt, 1, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := res.ThroughputGbps()
	if tp < 180 || tp > 200 {
		t.Fatalf("RDMA throughput %.1f Gbit/s, want near 200", tp)
	}
}

func TestSpinUnpacksAndSignalsCompletion(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(5*2048, 3)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(50*sim.Nanosecond, spin.Policy{})
	completionRan := false
	ctx.Completion = func(a *spin.HandlerArgs) spin.Result {
		completionRan = true
		return spin.Result{Runtime: 20 * sim.Nanosecond}
	}
	pt := newPT(t, &portals.ME{Match: 9, Ctx: ctx})

	res, err := Receive(cfg, pt, 9, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(host, packed) {
		t.Fatal("handler unpack corrupted the message")
	}
	if !completionRan {
		t.Fatal("completion handler did not run")
	}
	if res.HandlerRuns != 5 {
		t.Fatalf("handler runs = %d", res.HandlerRuns)
	}
	evs := pt.Events()
	if len(evs) != 1 || evs[0].Kind != portals.EventHandlerCompletion {
		t.Fatalf("events = %v", evs)
	}
	if res.Handler.Total() != 5*50*sim.Nanosecond {
		t.Fatalf("handler breakdown total = %v", res.Handler.Total())
	}
	if res.MaxHandlerRuntime != 50*sim.Nanosecond {
		t.Fatalf("max handler runtime = %v", res.MaxHandlerRuntime)
	}
}

func TestSpinFastHandlersReachLineRate(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(1<<21, 4)
	host := make([]byte, len(packed))
	// 60 ns per 2 KiB packet across 16 HPUs is far below the 81.92 ns
	// packet interval: line rate expected.
	ctx := passthroughCtx(60*sim.Nanosecond, spin.Policy{})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp := res.ThroughputGbps(); tp < 180 {
		t.Fatalf("throughput %.1f Gbit/s, want near line rate", tp)
	}
}

func TestSpinSlowHandlersHPUBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HPUs = 2
	packed := randPacked(64*2048, 5)
	host := make([]byte, len(packed))
	handlerTime := 1 * sim.Microsecond
	ctx := passthroughCtx(handlerTime, spin.Policy{})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 64 packets * 1us / 2 HPUs = 32us lower bound on processing.
	if res.ProcTime < 32*sim.Microsecond {
		t.Fatalf("proc time %v, want >= 32us (HPU bound)", res.ProcTime)
	}
	if !bytes.Equal(host, packed) {
		t.Fatal("unpack corrupted")
	}
}

func TestHPUScalingSpeedsUp(t *testing.T) {
	packed := randPacked(128*2048, 6)
	run := func(hpus int) sim.Time {
		cfg := DefaultConfig()
		cfg.HPUs = hpus
		host := make([]byte, len(packed))
		ctx := passthroughCtx(2*sim.Microsecond, spin.Policy{})
		pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
		res, err := Receive(cfg, pt, 2, packed, host, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.ProcTime
	}
	t1, t8 := run(1), run(8)
	if t8 >= t1 {
		t.Fatalf("8 HPUs (%v) not faster than 1 (%v)", t8, t1)
	}
	if float64(t1)/float64(t8) < 4 {
		t.Fatalf("8 HPUs speedup only %.2fx", float64(t1)/float64(t8))
	}
}

func TestBlockedRRSerializesSequence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HPUs = 16
	n := 32
	packed := randPacked(n*2048, 7)
	host := make([]byte, len(packed))
	handlerTime := 3 * sim.Microsecond
	// One single vHPU owns every packet: fully serialized despite 16 HPUs.
	ctx := passthroughCtx(handlerTime, spin.Policy{DeltaP: n, VHPUs: 1})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcTime < sim.Time(n)*handlerTime {
		t.Fatalf("proc time %v < serialized bound %v", res.ProcTime, sim.Time(n)*handlerTime)
	}
	if !bytes.Equal(host, packed) {
		t.Fatal("unpack corrupted")
	}
}

func TestBlockedRRParallelAcrossSequences(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HPUs = 16
	n := 32
	packed := randPacked(n*2048, 8)
	host := make([]byte, len(packed))
	handlerTime := 3 * sim.Microsecond
	// 8 sequences of 4 packets: up to 8 handlers in flight.
	ctx := passthroughCtx(handlerTime, spin.Policy{DeltaP: 4})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	serialized := sim.Time(n) * handlerTime
	if res.ProcTime > serialized/4 {
		t.Fatalf("proc time %v, want well below serialized %v", res.ProcTime, serialized)
	}
}

func TestOutOfOrderDeliveryStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	n := 64
	packed := randPacked(n*2048, 10)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(100*sim.Nanosecond, spin.Policy{})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	order := fabric.ReorderWindow(n, 8, rng)
	res, err := Receive(cfg, pt, 2, packed, host, order)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(host, packed) {
		t.Fatal("OOO unpack corrupted")
	}
	if res.HandlerRuns != n {
		t.Fatalf("handler runs = %d", res.HandlerRuns)
	}
}

func TestDroppedMessage(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(2048, 11)
	host := make([]byte, len(packed))
	pt := newPT(t, &portals.ME{Match: 1})
	res, err := Receive(cfg, pt, 999, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Fatal("message should have been dropped")
	}
	evs := pt.Events()
	if len(evs) != 1 || evs[0].Kind != portals.EventDropped {
		t.Fatalf("events = %v", evs)
	}
	for _, b := range host {
		if b != 0 {
			t.Fatal("dropped message wrote to host memory")
		}
	}
}

func TestNICMemoryOverflowFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NICMemBytes = 1024
	packed := randPacked(2048, 12)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(50*sim.Nanosecond, spin.Policy{})
	ctx.NICMemBytes = 4096
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	if _, err := Receive(cfg, pt, 2, packed, host, nil); err == nil {
		t.Fatal("oversized context accepted")
	}
}

func TestDMAQueueStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectDMASeries = true
	packed := randPacked(32*2048, 13)
	host := make([]byte, len(packed))
	// Handler issuing 16 writes per packet.
	ctx := &spin.ExecutionContext{
		Name: "chunky",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			n := int64(len(a.Payload)) / 16
			for i := int64(0); i < 16; i++ {
				a.DMA.Write(a.StreamOff+i*n, a.Payload[i*n:(i+1)*n])
			}
			return spin.Result{Runtime: 500 * sim.Nanosecond}
		},
	}
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(host, packed) {
		t.Fatal("unpack corrupted")
	}
	// 32 packets * 16 writes; no completion handler, so no final write.
	if res.DMA.Writes != 32*16 {
		t.Fatalf("writes = %d", res.DMA.Writes)
	}
	if res.DMA.Bytes != int64(len(packed)) {
		t.Fatalf("bytes = %d", res.DMA.Bytes)
	}
	if res.DMA.MaxQueueDepth <= 0 || len(res.DMA.Samples) == 0 {
		t.Fatalf("queue stats missing: %+v", res.DMA)
	}
	if res.DMA.WireBytes <= res.DMA.Bytes {
		t.Fatal("wire bytes must include TLP overhead")
	}
}

func TestPktBufPeakBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HPUs = 1
	n := 16
	packed := randPacked(n*2048, 14)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(5*sim.Microsecond, spin.Policy{})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	res, err := Receive(cfg, pt, 2, packed, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PktBufPeak <= 1 || res.PktBufPeak > int64(n) {
		t.Fatalf("packet buffer peak = %d", res.PktBufPeak)
	}
}

func TestReceiveValidation(t *testing.T) {
	cfg := DefaultConfig()
	pt := newPT(t, &portals.ME{Match: 1})
	if _, err := Receive(cfg, pt, 1, nil, nil, nil); err == nil {
		t.Fatal("empty message accepted")
	}
	bad := cfg
	bad.HPUs = 0
	if _, err := Receive(bad, pt, 1, make([]byte, 10), make([]byte, 10), nil); err == nil {
		t.Fatal("zero HPUs accepted")
	}
}

func TestIovecScatter(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(4*2048, 15)
	host := make([]byte, 4*len(packed))
	// 64 B blocks, 128 B stride.
	var regions []IovecRegion
	for off := int64(0); off < int64(len(packed)); off += 64 {
		regions = append(regions, IovecRegion{Offset: off * 2, Size: 64})
	}
	res, err := ReceiveIovec(cfg, regions, packed, host)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range regions {
		src := packed[int64(i)*64 : int64(i)*64+64]
		if !bytes.Equal(host[r.Offset:r.Offset+64], src) {
			t.Fatalf("region %d corrupted", i)
		}
	}
	// 128 regions with 32 entries: 3 refills after the preloaded batch.
	if res.DMA.ReadStalls != 3 {
		t.Fatalf("read stalls = %d, want 3", res.DMA.ReadStalls)
	}
	if res.DMA.Writes != int64(len(regions)) {
		t.Fatalf("writes = %d", res.DMA.Writes)
	}
}

func TestIovecStallsSlowItDown(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(64*2048, 16)
	host := make([]byte, 4*len(packed))
	mkRegions := func(block int64) []IovecRegion {
		var rs []IovecRegion
		for off := int64(0); off < int64(len(packed)); off += block {
			rs = append(rs, IovecRegion{Offset: off * 2, Size: block})
		}
		return rs
	}
	coarse, err := ReceiveIovec(cfg, mkRegions(2048), packed, host)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := ReceiveIovec(cfg, mkRegions(64), packed, host)
	if err != nil {
		t.Fatal(err)
	}
	if fine.ProcTime <= coarse.ProcTime {
		t.Fatalf("fine-grained iovec (%v) should be slower than coarse (%v)",
			fine.ProcTime, coarse.ProcTime)
	}
	if fine.DMA.ReadStalls <= coarse.DMA.ReadStalls {
		t.Fatal("fine-grained iovec should refill more")
	}
}

func TestIovecValidation(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(100, 17)
	host := make([]byte, 200)
	if _, err := ReceiveIovec(cfg, []IovecRegion{{Offset: 0, Size: 50}}, packed, host); err == nil {
		t.Fatal("undercovering regions accepted")
	}
	if _, err := ReceiveIovec(cfg, []IovecRegion{{Offset: 0, Size: -1}}, packed, host); err == nil {
		t.Fatal("negative region accepted")
	}
	if _, err := ReceiveIovec(cfg, nil, nil, host); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	cfg := DefaultConfig()
	packed := randPacked(2048, 18)
	host := make([]byte, len(packed))
	ctx := &spin.ExecutionContext{
		Name: "failing",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			return spin.Result{Err: errInjected}
		},
	}
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	if _, err := Receive(cfg, pt, 2, packed, host, nil); err == nil {
		t.Fatal("handler error swallowed")
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

func TestTraceRecordsPipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = &Trace{}
	packed := randPacked(4*2048, 21)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(100*sim.Nanosecond, spin.Policy{})
	ctx.Completion = func(*spin.HandlerArgs) spin.Result {
		return spin.Result{Runtime: 10 * sim.Nanosecond}
	}
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	if _, err := Receive(cfg, pt, 2, packed, host, nil); err != nil {
		t.Fatal(err)
	}
	tr := cfg.Trace
	if len(tr.Events) == 0 {
		t.Fatal("no trace events")
	}
	counts := map[TraceKind]int{}
	last := sim.Time(-1)
	for _, ev := range tr.Events {
		counts[ev.Kind]++
		if ev.At < last {
			t.Fatal("trace not chronological")
		}
		last = ev.At
	}
	if counts[TracePktArrival] != 4 || counts[TraceHandlerStart] != 4 ||
		counts[TraceHandlerEnd] != 4 || counts[TraceMatch] != 1 ||
		counts[TraceCompletion] != 1 {
		t.Fatalf("event counts: %v", counts)
	}
	if counts[TraceDMAIssue] == 0 {
		t.Fatal("no DMA issues traced")
	}
	if tr.Events[len(tr.Events)-1].Kind != TraceCompletion {
		t.Fatal("completion must be the last event")
	}
	if tr.String() == "" || tr.Summary() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTraceLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = &Trace{Limit: 3}
	packed := randPacked(8*2048, 22)
	host := make([]byte, len(packed))
	ctx := passthroughCtx(100*sim.Nanosecond, spin.Policy{})
	pt := newPT(t, &portals.ME{Match: 2, Ctx: ctx})
	if _, err := Receive(cfg, pt, 2, packed, host, nil); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Trace.Events) != 3 {
		t.Fatalf("limit ignored: %d events", len(cfg.Trace.Events))
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.add(TraceEvent{}) // must not panic
}
