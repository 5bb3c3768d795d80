package nic

import (
	"testing"

	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

func TestSendPackedPipelines(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(1 << 20)
	res, err := SendPacked(cfg, msg, 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUBusy != 100*sim.Microsecond {
		t.Fatalf("cpu busy = %v", res.CPUBusy)
	}
	// Injection starts only after packing: total > pack + wire floor.
	wire := cfg.Fabric.ByteTime(msg)
	if res.Injected < 100*sim.Microsecond+wire {
		t.Fatalf("injected at %v, pack+wire floor %v", res.Injected, 100*sim.Microsecond+wire)
	}
	// PCIe reads pipeline with injection: no more than ~20% overhead.
	if res.Injected > 100*sim.Microsecond+wire+wire/5 {
		t.Fatalf("injection %v not pipelined (floor %v)", res.Injected, 100*sim.Microsecond+wire)
	}
}

func TestSendStreamingOverlapsCPUAndWire(t *testing.T) {
	cfg := DefaultConfig()
	var regions []IovecRegion
	for i := 0; i < 1024; i++ {
		regions = append(regions, IovecRegion{Offset: int64(i) * 2048, Size: 1024})
	}
	msg := int64(1024 * 1024)
	// Fast CPU: wire-bound.
	fast, err := SendStreaming(cfg, regions, 10*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	wire := cfg.Fabric.ByteTime(msg)
	if fast.Injected > wire*3/2 {
		t.Fatalf("fast CPU should be wire-bound: %v vs %v", fast.Injected, wire)
	}
	// Slow CPU: CPU-bound, overlapped with the wire.
	slow, err := SendStreaming(cfg, regions, 200*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if slow.CPUBusy != 1024*200*sim.Nanosecond {
		t.Fatalf("cpu busy = %v", slow.CPUBusy)
	}
	if slow.Injected < slow.CPUBusy {
		t.Fatal("injection cannot finish before the CPU announced the last region")
	}
	if slow.Injected > slow.CPUBusy+10*sim.Microsecond {
		t.Fatalf("streaming put not overlapped: %v vs CPU %v", slow.Injected, slow.CPUBusy)
	}
}

func TestSendStreamingBeatsPackAndSend(t *testing.T) {
	cfg := DefaultConfig()
	// The paper's Fig. 4 motivation: streaming regions overlaps the pack
	// phase with the wire, finishing earlier than pack-then-send for the
	// same per-region CPU cost.
	var regions []IovecRegion
	for i := 0; i < 2048; i++ {
		regions = append(regions, IovecRegion{Offset: int64(i) * 1024, Size: 512})
	}
	msg := int64(2048 * 512)
	perRegion := 50 * sim.Nanosecond
	packTime := sim.Time(2048)*perRegion + cfg.Fabric.ByteTime(msg) // walk + copy
	packed, err := SendPacked(cfg, msg, packTime)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := SendStreaming(cfg, regions, perRegion)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Injected >= packed.Injected {
		t.Fatalf("streaming (%v) should beat pack+send (%v)", streamed.Injected, packed.Injected)
	}
}

func TestSendProcessPutUsesHPUsNotCPU(t *testing.T) {
	cfg := DefaultConfig()
	msg := int64(1 << 20)
	res, err := SendProcessPut(cfg, msg, func(*spin.HandlerArgs) spin.Result {
		return spin.Result{Runtime: 500 * sim.Nanosecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUBusy != 0 {
		t.Fatalf("cpu busy = %v", res.CPUBusy)
	}
	if res.HandlerRuns != cfg.Fabric.NumPackets(msg) {
		t.Fatalf("handler runs = %d", res.HandlerRuns)
	}
	if res.HPUBusy != sim.Time(res.HandlerRuns)*500*sim.Nanosecond {
		t.Fatalf("hpu busy = %v", res.HPUBusy)
	}
	// With 16 HPUs and 500ns handlers, the wire paces the send.
	wire := cfg.Fabric.ByteTime(msg)
	if res.Injected > 2*wire {
		t.Fatalf("process put not wire-bound: %v vs %v", res.Injected, wire)
	}
}

func TestSendProcessPutHPUBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HPUs = 1
	msg := int64(64 * 2048)
	handler := 5 * sim.Microsecond
	res, err := SendProcessPut(cfg, msg, func(*spin.HandlerArgs) spin.Result { return spin.Result{Runtime: handler} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected < 64*handler {
		t.Fatalf("single HPU must serialize handlers: %v < %v", res.Injected, 64*handler)
	}
}

func TestSendValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := SendPacked(cfg, 0, 0); err == nil {
		t.Fatal("empty packed send accepted")
	}
	if _, err := SendStreaming(cfg, nil, 0); err == nil {
		t.Fatal("no regions accepted")
	}
	if _, err := SendStreaming(cfg, []IovecRegion{{Offset: 0, Size: 0}}, 0); err == nil {
		t.Fatal("empty region accepted")
	}
	if _, err := SendProcessPut(cfg, 0, nil); err == nil {
		t.Fatal("empty process put accepted")
	}
	bad := cfg
	bad.HPUs = 0
	if _, err := SendProcessPut(bad, 100, func(*spin.HandlerArgs) spin.Result { return spin.Result{} }); err == nil {
		t.Fatal("zero HPUs accepted")
	}
}

func TestSendThroughputGbps(t *testing.T) {
	r := SendResult{MsgBytes: 25e8 / 8, Injected: sim.Second / 10}
	if g := r.ThroughputGbps(); g < 24.9 || g > 25.1 {
		t.Fatalf("throughput = %v", g)
	}
	if (SendResult{}).ThroughputGbps() != 0 {
		t.Fatal("zero case")
	}
}
