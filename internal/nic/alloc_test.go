package nic

import (
	"runtime/debug"
	"testing"

	"spinddt/internal/pcie"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// TestDMAWritePathSteadyStateAllocs guards the tentpole property of the
// typed event engine: once warm, the NIC's DMA write path — issuing write
// bursts, booking the channel pool and PCIe link, and firing the depth
// completion events — performs zero heap allocations per event.
func TestDMAWritePathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	eng := sim.New()
	d := newDMAEngine(eng, pcie.DefaultConfig(), 32, 80*sim.Nanosecond, false)

	var st DMAStats
	burst := func() {
		for i := 0; i < 64; i++ {
			d.write(&st, 4, 4096)
		}
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		burst() // warm the engine's queue storage
	}
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Fatalf("steady-state DMA write path allocates %v per burst, want 0", n)
	}
}

// TestReceiveSteadyStateAllocBound checks that repeated receives of the
// same message shape settle into a small, flat allocation profile: the
// per-event costs (closures, boxed events) that used to dominate are gone,
// leaving only per-simulation state.
func TestReceiveSteadyStateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	cfg := DefaultConfig()
	packed := randPacked(64*2048, 99)
	host := make([]byte, len(packed))
	pt := newPT(t, &portals.ME{Match: 3, Region: portals.HostRegion{Length: int64(len(packed))}})

	recv := func() {
		if _, err := Receive(cfg, pt, 3, packed, host, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		recv()
	}
	// As in TestExchangeSteadyStateAllocBound, a GC during the measurement
	// would empty the pools the receive draws from; measure the warm
	// steady state with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(50, recv)
	// 64 packets used to cost hundreds of closure allocations; the typed
	// path on pooled devices leaves only the escaping result rows.
	if n > 10 {
		t.Fatalf("steady-state receive allocates %v per message", n)
	}
}
