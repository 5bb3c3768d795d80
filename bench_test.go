// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark prints the figure's rows/series once (the same output
// `ddtbench` produces) and reports a headline metric via testing.B.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package spinddt_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"spinddt"
	"spinddt/internal/apps"
	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/experiments"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/plan"
	"spinddt/internal/sim"
)

// paperMsg is the paper's 4 MiB microbenchmark message.
const paperMsg = int64(4 << 20)

var printOnce sync.Map

// printTable emits a figure's table exactly once per process, so bench
// output contains every series without repeating it for b.N iterations.
func printTable(key string, t fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(t)
	}
}

func BenchmarkFig02PutLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig02Latency()
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig02", t)
	}
}

func BenchmarkFig08UnpackThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig08Throughput(paperMsg, nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig08", t)
	}
}

func BenchmarkFig09cPULPBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("fig09c", experiments.Fig09cPULPBandwidth())
	}
}

func BenchmarkFig10PULPvsARM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("fig10", experiments.Fig10PULPvsARM())
	}
}

func BenchmarkFig11PULPIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("fig11", experiments.Fig11PULPIPC())
	}
}

func BenchmarkFig12HandlerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12HandlerBreakdown(paperMsg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig12", t)
	}
}

func BenchmarkFig13Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ta, tb, tc, err := experiments.Fig13Scalability(paperMsg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig13a", ta)
		printTable("fig13b", tb)
		printTable("fig13c", tc)
	}
}

func BenchmarkFig14DMAQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig14DMAQueue(paperMsg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig14", t)
	}
}

func BenchmarkFig15DMAQueueOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig15DMAQueueOverTime(paperMsg, 16)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig15", t)
	}
}

// BenchmarkFig16AppSpeedups also covers Figs. 17 and 18, which aggregate
// the same application sweep.
func BenchmarkFig16AppSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunApps(apps.All())
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig16", experiments.Fig16AppSpeedups(results))
		printTable("fig17", experiments.Fig17Traffic(results))
		printTable("fig18", experiments.Fig18Amortization(results))
		best := 0.0
		for _, r := range results {
			if r.SpeedupRWCP > best {
				best = r.SpeedupRWCP
			}
			if r.SpeedupSpec > best {
				best = r.SpeedupSpec
			}
		}
		b.ReportMetric(best, "max-speedup-x")
	}
}

func BenchmarkFig19FFT2DScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, t, err := experiments.Fig19FFT2D(20480, nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig19", t)
		b.ReportMetric(points[0].SpeedupPc, "speedup-at-64-nodes-%")
	}
}

func BenchmarkAblationEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationEpsilon(paperMsg, 512)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-eps", t)
	}
}

func BenchmarkAblationDeltaP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationDeltaP(paperMsg, 512)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-dp", t)
	}
}

func BenchmarkAblationOutOfOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationOutOfOrder(1<<20, 512)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-ooo", t)
	}
}

func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationNormalization()
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-norm", t)
	}
}

func BenchmarkAblationSender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSender(paperMsg, 512)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-send", t)
	}
}

// --- Component microbenchmarks: the hot paths of the library itself ---

func BenchmarkDDTFlattenVector(b *testing.B) {
	typ := ddt.MustVector(4096, 16, 32, ddt.Int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if typ.TotalBlocks(1) != 4096 {
			b.Fatal("block count")
		}
	}
}

func BenchmarkDDTPackUnpack(b *testing.B) {
	typ := ddt.MustVector(4096, 16, 32, ddt.Int)
	_, hi := typ.Footprint(1)
	src := make([]byte, hi)
	dst := make([]byte, hi)
	packed := make([]byte, typ.Size())
	b.SetBytes(typ.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddt.PackInto(typ, 1, src, packed); err != nil {
			b.Fatal(err)
		}
		if err := ddt.Unpack(typ, 1, packed, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDTForEachBlock measures the region replay every host cost
// model and list build runs (Type.ForEachBlock), per replay shape: many
// small elements whose boundaries do not fuse, the same elements fusing,
// one large element, and the served-path mix — the first 64 random types a
// seeded serve-churn pool draws, each at its 8 KiB count.
func BenchmarkDDTForEachBlock(b *testing.B) {
	elem := ddt.MustIndexed([]int{3, 1, 7, 2}, []int{0, 5, 9, 20}, ddt.Double)
	type shape struct {
		typ   *ddt.Type
		count int
	}
	rng := rand.New(rand.NewSource(1))
	var churn []shape
	for len(churn) < 64 {
		t := ddt.RandomType(rng, 4).Commit()
		count := max(1, 8192/int(t.Size()))
		if lo, hi := t.Footprint(count); lo >= 0 && hi <= 256<<10 {
			churn = append(churn, shape{t, count})
		}
	}
	for _, c := range []struct {
		name   string
		shapes []shape
	}{
		{"unfused", []shape{{ddt.MustResized(elem, 0, 192), 256}}},
		{"fused", []shape{{elem, 256}}},
		{"count1", []shape{{ddt.MustVector(4096, 16, 32, ddt.Int), 1}}},
		{"churn", churn},
	} {
		b.Run(c.name, func(b *testing.B) {
			var blocks, bytes int64
			fn := func(off, size int64) { blocks++; bytes += size }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range c.shapes {
					s.typ.ForEachBlock(s.count, fn)
				}
			}
			if blocks == 0 || bytes == 0 {
				b.Fatal("no regions")
			}
		})
	}
}

// planBenchTypes returns one representative datatype per lowered plan
// kind, all at a 256 KiB packed message.
func planBenchTypes() []struct {
	name string
	typ  *ddt.Type
} {
	displs := make([]int, 4096)
	lens := make([]int, 4096)
	pos := 0
	for i := range displs {
		displs[i] = pos
		lens[i] = 14 + i%5 // 56..72 B regions, non-uniform
		pos += lens[i] + 1 + i%3
	}
	return []struct {
		name string
		typ  *ddt.Type
	}{
		{"contig", ddt.MustContiguous(65536, ddt.Int)},
		{"stride", ddt.MustVector(4096, 16, 32, ddt.Int)},
		{"offsets", ddt.MustIndexed(lens, displs, ddt.Int)},
	}
}

// BenchmarkPlanPack measures the lowered pack kernels alone: one
// pack+unpack round trip per iteration through Type.Plan(), per plan kind.
func BenchmarkPlanPack(b *testing.B) {
	for _, c := range planBenchTypes() {
		b.Run(c.name, func(b *testing.B) {
			typ := c.typ
			typ.Commit()
			p := typ.Plan()
			if p == nil {
				b.Fatal("no plan")
			}
			_, hi := typ.Footprint(1)
			src := make([]byte, hi)
			dst := make([]byte, hi)
			packed := make([]byte, typ.Size())
			b.SetBytes(typ.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Pack(1, src, packed)
				p.Unpack(1, packed, dst)
			}
		})
	}
}

// BenchmarkPlanVerify measures the receive-side verify kernel alone, per
// plan kind: one scatter, then the check of the receive buffer against
// the stream that re-zeroes its regions, as a verified pooled receive
// buffer goes back to its pool.
func BenchmarkPlanVerify(b *testing.B) {
	for _, c := range planBenchTypes() {
		b.Run(c.name, func(b *testing.B) {
			typ := c.typ
			p := typ.Plan()
			if p == nil || !p.Monotone(1) {
				b.Fatal("no monotone plan")
			}
			_, hi := typ.Footprint(1)
			dst := make([]byte, hi)
			packed := make([]byte, typ.Size())
			for i := range packed {
				packed[i] = byte(i*131 + 1)
			}
			b.SetBytes(typ.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Unpack(1, packed, dst)
				if !p.Verify(1, packed, dst, true) {
					b.Fatal("clean buffer rejected")
				}
			}
		})
	}
}

// hostReader is the benchmark's in-memory DMA read path. The pointer
// receiver keeps the plan.Reader conversion pointer-shaped (boxing a slice
// header would allocate on every conversion).
type hostReader []byte

func (h *hostReader) Read(hostOff int64, dst []byte) {
	copy(dst, (*h)[hostOff:hostOff+int64(len(dst))])
}

// BenchmarkPlanGather measures the sender-side gather resolvers: the full
// message resolved in MTU-sized packets per iteration, per resolver kind.
// The reader is converted to the interface once, as the device handlers do
// with their DMA engine — Resolve itself must be alloc-free per call.
func BenchmarkPlanGather(b *testing.B) {
	const mtu = 2048
	for _, c := range planBenchTypes() {
		b.Run(c.name, func(b *testing.B) {
			typ := c.typ
			g, _ := core.GatherPlan(typ, 1)
			_, hi := typ.Footprint(1)
			host := hostReader(make([]byte, hi))
			var r plan.Reader = &host
			msg := typ.Size()
			payload := make([]byte, mtu)
			b.SetBytes(msg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := int64(0); off < msg; off += mtu {
					n := int64(mtu)
					if n > msg-off {
						n = msg - off
					}
					if g.Resolve(off, n, payload[:n], r) <= 0 {
						b.Fatal("no blocks")
					}
				}
			}
		})
	}
}

func BenchmarkSimulationRWCP1MiB(b *testing.B) {
	typ := ddt.MustVector(2048, 128, 256, ddt.Int) // 512B blocks, 1 MiB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.NewRequest(core.RWCP, typ, 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("not verified")
		}
	}
}

func BenchmarkSimulationSpecialized1MiB(b *testing.B) {
	typ := ddt.MustVector(2048, 128, 256, ddt.Int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.NewRequest(core.Specialized, typ, 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("not verified")
		}
	}
}

// clusterBenchRequest is the Fig. 13 scalability workload lifted to a
// cluster: 8 endpoints each receiving a 1 MiB vector of 2 KiB blocks
// through the RW-CP offload, simulated as one sharded run (fabric +
// per-endpoint NIC+HPU + host domains).
func clusterBenchRequest(workers int) core.ClusterRequest {
	typ := ddt.MustVector(512, 512, 1024, ddt.Int) // 2 KiB blocks, 1 MiB
	req := core.NewClusterRequest(core.RWCP, typ, 1, 8)
	req.Stagger = 2 * sim.Microsecond
	req.Workers = workers
	return req
}

func runClusterBench(b *testing.B, workers int) {
	req := clusterBenchRequest(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCluster(req)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Results {
			if !r.Verified {
				b.Fatal("not verified")
			}
		}
	}
}

// BenchmarkSimulationClusterSerial is the serial-executor baseline of the
// sharded cluster simulation.
func BenchmarkSimulationClusterSerial(b *testing.B) { runClusterBench(b, 1) }

// BenchmarkSimulationSharded runs the same cluster on all cores; with >= 4
// cores it must beat BenchmarkSimulationClusterSerial (the bench-gate and
// TestShardedClusterSpeedup both watch this).
func BenchmarkSimulationSharded(b *testing.B) { runClusterBench(b, runtime.GOMAXPROCS(0)) }

// TestShardedClusterSpeedup asserts the tentpole's wall-clock win: on a
// machine with at least 4 cores, the parallel executor must finish the
// cluster workload faster than the serial executor. Best-of-3 on each
// side absorbs scheduler noise; the expected gap (2x or more) dwarfs it.
//
// A wall-clock assertion is only meaningful with the cores to itself, and
// `go test ./...` runs package binaries concurrently — so the test is
// opt-in via SPINDDT_SPEEDUP_TEST=1, which CI's bench-gate job sets in a
// dedicated step after the benchmarks, when the runner is otherwise idle.
func TestShardedClusterSpeedup(t *testing.T) {
	if os.Getenv("SPINDDT_SPEEDUP_TEST") == "" {
		t.Skip("wall-clock test; set SPINDDT_SPEEDUP_TEST=1 to run (CI bench-gate does)")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("%d cores: the parallel executor needs >= 4 to win", runtime.GOMAXPROCS(0))
	}
	best := func(workers int) time.Duration {
		d := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := core.RunCluster(clusterBenchRequest(workers)); err != nil {
				t.Fatal(err)
			}
			if e := time.Since(start); e < d {
				d = e
			}
		}
		return d
	}
	best(runtime.GOMAXPROCS(0)) // warm pools and caches for both paths
	serial := best(1)
	sharded := best(runtime.GOMAXPROCS(0))
	t.Logf("serial %v, sharded %v (%.2fx)", serial, sharded, float64(serial)/float64(sharded))
	if sharded >= serial {
		t.Fatalf("sharded executor (%v) not faster than serial (%v) on %d cores",
			sharded, serial, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkSessionPostReuse measures the session API's amortization claim
// (the Fig. 18 semantics as a perf property): a committed TypeHandle is
// posted 64 times per iteration against one endpoint, and after the first
// post the per-post cost must be bookkeeping only — no offload rebuild, no
// host prep, allocations near zero. Posts are spaced so their arrival
// windows do not overlap: the benchmark isolates the posting path, not
// device contention (BenchmarkAlltoall8 measures that).
func BenchmarkSessionPostReuse(b *testing.B) {
	typ := ddt.MustVector(128, 128, 256, ddt.Int) // 512 B blocks, 64 KiB
	sess := spinddt.NewSession(spinddt.NewSessionConfig())
	h, err := sess.Commit(typ)
	if err != nil {
		b.Fatal(err)
	}
	ep := sess.Endpoint(spinddt.EndpointConfig{})
	const posts = 64
	const gap = 50 * sim.Microsecond
	run := func() {
		for p := 0; p < posts; p++ {
			if _, err := ep.Post(h, 1, spinddt.PostOpts{Seed: 1, Start: sim.Time(p) * gap}); err != nil {
				b.Fatal(err)
			}
		}
		if err := ep.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	run() // absorb the one-time build and first-post prep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkAlltoall8 regenerates the alltoall figure: 7 peer messages
// batched through one NIC residency pass per strategy, the multi-message
// contention workload of the session API.
func BenchmarkAlltoall8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AlltoallExchange(8, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		printTable("alltoall", t)
	}
}

// BenchmarkSessionSendReuse is the sender-side mirror of
// BenchmarkSessionPostReuse: a committed TypeHandle is sent 64 times per
// iteration through one endpoint's outbound device, and after the first
// send the per-send cost must be bookkeeping only — no gather rebuild, no
// host prep. Sends are spaced so their injection windows do not overlap.
func BenchmarkSessionSendReuse(b *testing.B) {
	typ := ddt.MustVector(128, 128, 256, ddt.Int) // 512 B blocks, 64 KiB
	sess := spinddt.NewSession(spinddt.NewSessionConfig())
	h, err := sess.Commit(typ)
	if err != nil {
		b.Fatal(err)
	}
	ep := sess.Endpoint(spinddt.EndpointConfig{})
	const sends = 64
	const gap = 50 * sim.Microsecond
	run := func() {
		for p := 0; p < sends; p++ {
			if _, err := ep.Send(h, 1, spinddt.SendOpts{Seed: 1, Start: sim.Time(p) * gap}); err != nil {
				b.Fatal(err)
			}
		}
		if err := ep.FlushSends(); err != nil {
			b.Fatal(err)
		}
	}
	run() // absorb the one-time gather build and first-send prep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkHaloExchange8 regenerates the haloexchange figure: an 8-rank
// ring where every rank's two gathered sends contend on its outbound
// device and its two receives on its inbound device, sharded one domain
// per rank — the full symmetric device model under the parallel executor.
func BenchmarkHaloExchange8(b *testing.B) {
	// One untimed warm-up pass: the exchange allocates ~340MB, and its
	// cold run (GC pacing from whatever heap the preceding benchmarks
	// left) can exceed -benchtime on one core, pinning the framework at
	// a single unrepresentative iteration.
	if t, err := experiments.HaloExchange(8, 1<<20); err != nil {
		b.Fatal(err)
	} else {
		printTable("haloexchange", t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.HaloExchange(8, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		printTable("haloexchange", t)
	}
}

// BenchmarkHaloExchange64 is the scaled-out exchange figure: a 64-rank
// ring (128 gathered sends, 128 verified receives) at 256 KiB per
// neighbor message, one sharded domain per rank. The headline metrics
// are B/op and allocs/op — with the streamed wire chunks and pooled
// exchange state the footprint must stay flat in rank count, not grow
// with the ~32 MiB of wire traffic in flight.
func BenchmarkHaloExchange64(b *testing.B) {
	// Same untimed warm-up rationale as BenchmarkHaloExchange8.
	if t, err := experiments.HaloExchange(64, 256<<10); err != nil {
		b.Fatal(err)
	} else {
		printTable("haloexchange64", t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.HaloExchange(64, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		printTable("haloexchange64", t)
	}
}

// BenchmarkHaloExchange256 is the quarter-paper-scale weak-scaling point:
// a 256-rank ring (512 gathered sends, 512 verified receives) at 64 KiB
// per neighbor message. At this rank count the instantiate-not-rebuild
// layer is the difference between one offload build plus 511 pooled
// instantiations and 512 full builds — the benchmark gates both the
// wall-clock and the per-run footprint of that path.
func BenchmarkHaloExchange256(b *testing.B) {
	// Same untimed warm-up rationale as BenchmarkHaloExchange8.
	if t, err := experiments.HaloExchange(256, 64<<10); err != nil {
		b.Fatal(err)
	} else {
		printTable("haloexchange256", t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.HaloExchange(256, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		printTable("haloexchange256", t)
	}
}

// BenchmarkOffloadInstantiate prices one instantiate/release cycle
// against a warm template: the steady-state cost a rank pays for its own
// execution context once the (type, count, strategy) build is cached —
// the quantity the exchange figures multiply by the rank count.
func BenchmarkOffloadInstantiate(b *testing.B) {
	typ := ddt.MustVector(512, 512, 1024, ddt.Char)
	typ.Commit()
	seed, err := core.BuildOffload(core.RWCP, core.BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: core.DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		Epsilon: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer seed.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := seed.Instantiate()
		if err != nil {
			b.Fatal(err)
		}
		off.Release()
	}
}

func BenchmarkAblationEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationEndToEnd(1<<20, 512)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-e2e", t)
	}
}
