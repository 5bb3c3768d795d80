package core

import (
	"math/rand"
	"testing"

	"spinddt/internal/ddt"
	"spinddt/internal/fabric"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// fig8Vector builds the paper's microbenchmark type: a vector with the
// given block size and a stride of twice the block size, sized to msgBytes.
func fig8Vector(blockBytes, msgBytes int64) *ddt.Type {
	count := int(msgBytes / blockBytes)
	blockInts := int(blockBytes / 4)
	return ddt.MustVector(count, blockInts, 2*blockInts, ddt.Int)
}

func mustRun(t *testing.T, req Request) Result {
	t.Helper()
	res, err := Run(req)
	if err != nil {
		t.Fatalf("%v: %v", req.Strategy, err)
	}
	if req.Verify && !res.Verified {
		t.Fatalf("%v: not verified", req.Strategy)
	}
	return res
}

func TestAllStrategiesVerifyOnVector(t *testing.T) {
	typ := fig8Vector(512, 1<<19) // 512 KiB message, 512 B blocks
	for _, s := range AllStrategies {
		res := mustRun(t, NewRequest(s, typ, 1))
		if res.ProcTime <= 0 {
			t.Fatalf("%v: proc time %v", s, res.ProcTime)
		}
		if res.MsgBytes != 1<<19 {
			t.Fatalf("%v: msg bytes %d", s, res.MsgBytes)
		}
	}
}

func TestAllStrategiesVerifyOnNestedType(t *testing.T) {
	// MILC-style vector of vectors.
	inner := ddt.MustVector(4, 3, 4, ddt.Double)
	typ := ddt.MustVector(64, 2, 4, inner)
	for _, s := range AllStrategies {
		res := mustRun(t, NewRequest(s, typ, 16))
		if !res.Verified {
			t.Fatalf("%v not verified", s)
		}
	}
}

// TestStrategiesVerifyOnRandomTypes is the central cross-strategy property:
// every strategy produces byte-identical receive buffers on random nested
// datatypes (Run fails internally otherwise).
func TestStrategiesVerifyOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		typ := ddt.RandomType(rng, 3)
		count := 1 + rng.Intn(8)
		// Keep messages multi-packet but small enough for fast tests.
		for typ.Size()*int64(count) < 3*2048 {
			count *= 2
		}
		if typ.Size()*int64(count) > 1<<22 {
			continue
		}
		for _, s := range AllStrategies {
			req := NewRequest(s, typ, count)
			req.Seed = int64(iter)
			mustRun(t, req)
		}
	}
}

func TestOffloadedStrategiesHandleOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	typ := fig8Vector(256, 1<<18)
	n := fabric.DefaultConfig().NumPackets(1 << 18)
	for _, window := range []int{2, 8, 32} {
		order := fabric.ReorderWindow(n, window, rng)
		for _, s := range OffloadStrategies {
			req := NewRequest(s, typ, 1)
			req.Order = order
			mustRun(t, req)
		}
		// Host baseline also works out of order (plain RDMA).
		req := NewRequest(HostUnpack, typ, 1)
		req.Order = order
		mustRun(t, req)
	}
}

func TestOutOfOrderRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 10; iter++ {
		typ := ddt.RandomType(rng, 3)
		count := 1
		for typ.Size()*int64(count) < 8*2048 {
			count *= 2
		}
		if typ.Size()*int64(count) > 1<<21 {
			continue
		}
		n := fabric.DefaultConfig().NumPackets(typ.Size() * int64(count))
		order := fabric.ReorderWindow(n, 1+rng.Intn(16), rng)
		for _, s := range OffloadStrategies {
			req := NewRequest(s, typ, count)
			req.Order = order
			req.Seed = int64(iter)
			mustRun(t, req)
		}
	}
}

// --- Shape calibration tests (Fig. 8) ---

func TestSpecializedReachesLineRateAt64B(t *testing.T) {
	typ := fig8Vector(64, 1<<20)
	res := mustRun(t, NewRequest(Specialized, typ, 1))
	if tp := res.ThroughputGbps(); tp < 180 {
		t.Fatalf("specialized at 64B blocks: %.1f Gbit/s, want near line rate", tp)
	}
	if res.SpecKind != "vector" {
		t.Fatalf("spec kind = %q", res.SpecKind)
	}
}

func TestHostWinsAtTinyBlocks(t *testing.T) {
	typ := fig8Vector(4, 1<<20)
	host := mustRun(t, NewRequest(HostUnpack, typ, 1))
	for _, s := range OffloadStrategies {
		res := mustRun(t, NewRequest(s, typ, 1))
		if res.ProcTime < host.ProcTime {
			t.Fatalf("%v (%v) beat host (%v) at 4B blocks; paper's crossover requires host to win",
				s, res.ProcTime, host.ProcTime)
		}
	}
}

func TestOffloadWinsAtMediumBlocks(t *testing.T) {
	typ := fig8Vector(512, 1<<20)
	host := mustRun(t, NewRequest(HostUnpack, typ, 1))
	spec := mustRun(t, NewRequest(Specialized, typ, 1))
	rwcp := mustRun(t, NewRequest(RWCP, typ, 1))
	if spec.ProcTime >= host.ProcTime {
		t.Fatalf("specialized (%v) lost to host (%v) at 512B blocks", spec.ProcTime, host.ProcTime)
	}
	if rwcp.ProcTime >= host.ProcTime {
		t.Fatalf("RW-CP (%v) lost to host (%v) at 512B blocks", rwcp.ProcTime, host.ProcTime)
	}
	if s := spec.SpeedupOver(host); s < 4 {
		t.Fatalf("specialized speedup over host %.2fx, want >= 4x", s)
	}
}

func TestStrategyOrderingAtMediumBlocks(t *testing.T) {
	// Paper Fig. 8 ordering at small-ish blocks:
	// Specialized >= RW-CP >= RO-CP >= HPU-local.
	typ := fig8Vector(128, 1<<20)
	var procs [4]sim.Time
	for i, s := range []Strategy{Specialized, RWCP, ROCP, HPULocal} {
		procs[i] = mustRun(t, NewRequest(s, typ, 1)).ProcTime
	}
	for i := 1; i < 4; i++ {
		if procs[i] < procs[i-1] {
			t.Fatalf("strategy ordering violated at 128B blocks: %v", procs)
		}
	}
}

func TestRWCPWithinFactorTwoOfSpecialized(t *testing.T) {
	// Paper Sec. 5.2: "RW-CP is only a factor of two slower than the
	// specialized handler" per handler execution.
	typ := fig8Vector(128, 1<<20)
	spec := mustRun(t, NewRequest(Specialized, typ, 1))
	rwcp := mustRun(t, NewRequest(RWCP, typ, 1))
	sPer := float64(spec.NIC.Handler.Total()) / float64(spec.NIC.HandlerRuns)
	rPer := float64(rwcp.NIC.Handler.Total()) / float64(rwcp.NIC.HandlerRuns)
	if ratio := rPer / sPer; ratio > 3.0 || ratio < 1.2 {
		t.Fatalf("RW-CP/specialized handler ratio = %.2f, want ~2x", ratio)
	}
}

func TestSpecializedScalesWithHPUs(t *testing.T) {
	// Fig. 13a: at 2 KiB blocks the specialized handler is at line rate
	// already with 2 HPUs.
	typ := fig8Vector(2048, 1<<20)
	req := NewRequest(Specialized, typ, 1)
	req.NIC.HPUs = 2
	res := mustRun(t, req)
	if tp := res.ThroughputGbps(); tp < 180 {
		t.Fatalf("specialized with 2 HPUs at 2KiB blocks: %.1f Gbit/s", tp)
	}
}

func TestCheckpointIntervalShrinksWithBlockSize(t *testing.T) {
	// Fig. 13b: larger blocks -> faster handlers -> smaller interval ->
	// more checkpoints -> more NIC memory.
	small := mustRun(t, NewRequest(RWCP, fig8Vector(64, 1<<20), 1))
	large := mustRun(t, NewRequest(RWCP, fig8Vector(2048, 1<<20), 1))
	if large.Interval >= small.Interval {
		t.Fatalf("interval: 2KiB blocks %d >= 64B blocks %d", large.Interval, small.Interval)
	}
	if large.Checkpoints <= small.Checkpoints {
		t.Fatalf("checkpoints: 2KiB %d <= 64B %d", large.Checkpoints, small.Checkpoints)
	}
}

func TestNICMemoryGrowsWithHPUs(t *testing.T) {
	// Fig. 13c: more HPUs -> more checkpoints (RW-CP) and more segment
	// replicas (HPU-local).
	typ := fig8Vector(2048, 1<<20)
	for _, s := range []Strategy{RWCP, HPULocal} {
		req4 := NewRequest(s, typ, 1)
		req4.NIC.HPUs = 4
		req32 := NewRequest(s, typ, 1)
		req32.NIC.HPUs = 32
		r4 := mustRun(t, req4)
		r32 := mustRun(t, req32)
		if r32.NICBytes <= r4.NICBytes {
			t.Fatalf("%v: NIC memory with 32 HPUs (%d) <= with 4 (%d)",
				s, r32.NICBytes, r4.NICBytes)
		}
	}
}

func TestSpecializedNICMemoryTiny(t *testing.T) {
	res := mustRun(t, NewRequest(Specialized, fig8Vector(64, 1<<20), 1))
	if res.NICBytes > 64 {
		t.Fatalf("vector-specialized NIC state = %d bytes", res.NICBytes)
	}
}

func TestListSpecializedForIndexed(t *testing.T) {
	displs := []int{0, 7, 20, 33, 41, 77, 90, 120}
	typ := ddt.MustIndexedBlock(2, displs, ddt.Double)
	res := mustRun(t, NewRequest(Specialized, typ, 512))
	if res.SpecKind != "list" {
		t.Fatalf("spec kind = %q, want list", res.SpecKind)
	}
	if res.NICBytes != typ.TotalBlocks(512)*16 {
		t.Fatalf("list NIC bytes = %d", res.NICBytes)
	}
}

func TestRWCPTrafficIsMessageSize(t *testing.T) {
	// Fig. 17: RW-CP moves exactly the message to main memory; the host
	// baseline moves several times more.
	typ := fig8Vector(256, 1<<19)
	rwcp := mustRun(t, NewRequest(RWCP, typ, 1))
	host := mustRun(t, NewRequest(HostUnpack, typ, 1))
	if rwcp.TrafficBytes != rwcp.MsgBytes {
		t.Fatalf("RW-CP traffic = %d, want %d", rwcp.TrafficBytes, rwcp.MsgBytes)
	}
	ratio := float64(host.TrafficBytes) / float64(rwcp.TrafficBytes)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("host/RW-CP traffic ratio = %.2f, want 2-8x", ratio)
	}
}

func TestIovecSlowerThanSpecializedForManyBlocks(t *testing.T) {
	typ := fig8Vector(64, 1<<19)
	spec := mustRun(t, NewRequest(Specialized, typ, 1))
	iovec := mustRun(t, NewRequest(PortalsIovec, typ, 1))
	if iovec.ProcTime <= spec.ProcTime {
		t.Fatalf("iovec (%v) should be slower than specialized (%v) at 64B blocks",
			iovec.ProcTime, spec.ProcTime)
	}
	if iovec.NIC.DMA.ReadStalls == 0 {
		t.Fatal("iovec baseline never refilled its entries")
	}
}

func TestHeuristicSelectInterval(t *testing.T) {
	p := IntervalParams{
		MsgBytes: 4 << 20, PktBytes: 2048, HPUs: 16,
		TPH:     2 * sim.Microsecond,
		TPkt:    sim.FromNanoseconds(81.92),
		Epsilon: 0.2, CheckpointBytes: 612,
		NICMemBudget: 4 << 20, PktBufBytes: 1 << 20,
	}
	c := SelectInterval(p)
	if c.IntervalBytes%2048 != 0 || c.IntervalBytes <= 0 {
		t.Fatalf("interval = %d", c.IntervalBytes)
	}
	if c.Checkpoints <= 0 || int64(c.Checkpoints)*612 > p.NICMemBudget {
		t.Fatalf("checkpoints = %d", c.Checkpoints)
	}
	if !c.EpsilonSatisfied || !c.PktBufOK {
		t.Fatalf("constraints: %+v", c)
	}
	// Tiny memory budget forces larger intervals.
	p.NICMemBudget = 8 * 612
	c2 := SelectInterval(p)
	if c2.IntervalBytes < c.IntervalBytes {
		t.Fatalf("tiny budget shrank the interval: %d < %d", c2.IntervalBytes, c.IntervalBytes)
	}
	if c2.Checkpoints > 8 {
		t.Fatalf("budget overrun: %d checkpoints", c2.Checkpoints)
	}
}

func TestHeuristicSingleHPU(t *testing.T) {
	c := SelectInterval(IntervalParams{
		MsgBytes: 1 << 20, PktBytes: 2048, HPUs: 1,
		TPH: sim.Microsecond, TPkt: sim.FromNanoseconds(81.92),
		Epsilon: 0.2, CheckpointBytes: 612, NICMemBudget: 1 << 20,
	})
	if c.Checkpoints != 1 {
		t.Fatalf("single HPU should need one checkpoint, got %d", c.Checkpoints)
	}
}

func TestBuildOffloadErrors(t *testing.T) {
	p := BuildParams{Type: ddt.MustContiguous(4, ddt.Int), Count: 0}
	if _, err := BuildOffload(Specialized, p); err == nil {
		t.Fatal("count 0 accepted")
	}
	p.Count = 1
	if _, err := BuildOffload(HostUnpack, p); err == nil {
		t.Fatal("host unpack is not an offload")
	}
	empty := BuildParams{Type: ddt.MustContiguous(0, ddt.Int), Count: 1}
	if _, err := BuildOffload(Specialized, empty); err == nil {
		t.Fatal("empty type accepted")
	}
}

// TestCheckpointBudgetBelowOneCheckpoint builds RW-CP on a NIC whose
// memory cannot hold even the dataloop: the checkpoint budget clamps to
// one checkpoint, so the build holds exactly one and its interval spans
// the whole message.
func TestCheckpointBudgetBelowOneCheckpoint(t *testing.T) {
	cfg := nic.DefaultConfig()
	cfg.NICMemBytes = 64
	typ := ddt.MustIndexed([]int{1, 2, 1}, []int{0, 3, 9}, ddt.Int)
	count := 4096
	off, err := BuildOffload(RWCP, BuildParams{
		Type: typ, Count: count,
		NIC: cfg, Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		Epsilon: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg := typ.Size() * int64(count); off.Checkpoints != 1 || off.Interval < msg {
		t.Fatalf("checkpoints %d at interval %d for a %d-byte message, want 1 spanning it", off.Checkpoints, off.Interval, msg)
	}
}

func TestRunRejectsNegativeLowerBound(t *testing.T) {
	typ, err := ddt.NewHVector(3, 1, -8, ddt.Int)
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(Specialized, typ, 1)
	if _, err := Run(req); err == nil {
		t.Fatal("negative lower bound accepted for receive")
	}
}

func TestIovecRejectsOutOfOrder(t *testing.T) {
	typ := fig8Vector(256, 1<<16)
	req := NewRequest(PortalsIovec, typ, 1)
	req.Order = fabric.ReorderWindow(32, 4, rand.New(rand.NewSource(1)))
	if _, err := Run(req); err == nil {
		t.Fatal("iovec with OOO order accepted")
	}
}

func TestPrepAmortization(t *testing.T) {
	// Fig. 18 logic: checkpoint prep should amortize within a few reuses
	// for a type where RW-CP clearly beats the host.
	typ := fig8Vector(512, 1<<20)
	rwcp := mustRun(t, NewRequest(RWCP, typ, 1))
	host := mustRun(t, NewRequest(HostUnpack, typ, 1))
	gain := host.ProcTime - rwcp.ProcTime
	if gain <= 0 {
		t.Fatal("no gain to amortize")
	}
	reuses := float64(rwcp.Prep.Total()) / float64(gain)
	if reuses > 4 {
		t.Fatalf("checkpoint prep needs %.1f reuses to amortize, want <= 4", reuses)
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		Specialized: "Specialized", RWCP: "RW-CP", ROCP: "RO-CP",
		HPULocal: "HPU-local", HostUnpack: "Host", PortalsIovec: "Portals4-iovec",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d -> %q, want %q", int(s), s.String(), want)
		}
	}
}
