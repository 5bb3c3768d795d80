package nic

import (
	"bytes"
	"reflect"
	"testing"

	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// clusterFixture builds n endpoints, each receiving its own passthrough
// message (distinct payload, staggered start).
func clusterFixture(t *testing.T, n int, msg int, stagger sim.Time) ([]ClusterEndpoint, [][]byte) {
	t.Helper()
	eps := make([]ClusterEndpoint, n)
	packs := make([][]byte, n)
	for i := range eps {
		packed := randPacked(msg, int64(100+i))
		host := make([]byte, msg)
		ctx := passthroughCtx(500*sim.Nanosecond, spin.Policy{})
		eps[i] = ClusterEndpoint{
			Cfg:    DefaultConfig(),
			PT:     newPT(t, &portals.ME{Match: 1, Ctx: ctx}),
			Bits:   1,
			Packed: packed,
			Host:   host,
			Start:  sim.Time(i) * stagger,
		}
		packs[i] = packed
	}
	return eps, packs
}

// TestClusterDeliversAndMatchesStandalone checks every endpoint's buffer
// and compares each endpoint's result against the same receive simulated
// standalone: the fabric domain's mailed deliveries reproduce the serial
// arrival schedule tick for tick.
func TestClusterDeliversAndMatchesStandalone(t *testing.T) {
	const n, msg = 4, 5*2048 + 77
	eps, packs := clusterFixture(t, n, msg, 3*sim.Microsecond)
	res, err := ReceiveCluster(eps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != n || res.Windows == 0 {
		t.Fatalf("results %d windows %d", len(res.Results), res.Windows)
	}
	for i := range eps {
		if !bytes.Equal(eps[i].Host, packs[i]) {
			t.Fatalf("endpoint %d: scattered bytes differ", i)
		}
		// Standalone reference: same context state is consumed, so rebuild.
		ctx := passthroughCtx(500*sim.Nanosecond, spin.Policy{})
		pt := newPT(t, &portals.ME{Match: 1, Ctx: ctx})
		host := make([]byte, msg)
		arr, err := eps[i].Cfg.Fabric.AppendSchedule(nil, int64(msg), eps[i].Start, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := recvTopology(eps[i].Cfg, []BatchMessage{{PT: pt, Bits: 1, Packed: packs[i], Host: host, Arrivals: arr}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, got := refs[0], res.Results[i]
		if got.Done != ref.Done || got.ProcTime != ref.ProcTime || got.HandlerRuns != ref.HandlerRuns ||
			got.DMA.Writes != ref.DMA.Writes || got.DMA.Bytes != ref.DMA.Bytes {
			t.Fatalf("endpoint %d: cluster result %+v differs from standalone %+v", i, got, ref)
		}
		want := got.Done + eps[i].Cfg.PCIe.NotifyLatency()
		if res.Notified[i] != want {
			t.Fatalf("endpoint %d: notified at %v, want %v", i, res.Notified[i], want)
		}
	}
	if res.Makespan != res.Notified[n-1] {
		t.Fatalf("makespan %v, last notify %v", res.Makespan, res.Notified[n-1])
	}
}

// TestClusterSerialParallelIdentical is the executor-determinism check:
// the serial executor and several parallel widths must produce
// byte-identical cluster results.
func TestClusterSerialParallelIdentical(t *testing.T) {
	run := func(workers int) ClusterResult {
		eps, _ := clusterFixture(t, 5, 7*2048, sim.Microsecond)
		res, err := ReceiveCluster(eps, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 4, 9} {
		if par := run(w); !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d cluster result differs from serial executor", w)
		}
	}
}

// TestClusterPerEndpointTracing pins the per-endpoint trace contract:
// each endpoint may carry its own Trace (its domain alone appends to it,
// so concurrent shards stay race-free) and every traced endpoint records
// its full pipeline; sharing one Trace across endpoints would break the
// no-shared-mutable-state rule and is rejected.
func TestClusterPerEndpointTracing(t *testing.T) {
	eps, _ := clusterFixture(t, 3, 3*2048, 0)
	traces := make([]*Trace, len(eps))
	for i := range eps {
		traces[i] = &Trace{}
		eps[i].Cfg.Trace = traces[i]
	}
	if _, err := ReceiveCluster(eps, 3); err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if len(tr.Events) == 0 {
			t.Fatalf("endpoint %d: trace empty", i)
		}
		completions := 0
		for _, ev := range tr.Events {
			if ev.Kind == TraceCompletion {
				completions++
			}
		}
		if completions != 1 {
			t.Fatalf("endpoint %d: %d completion events, want 1", i, completions)
		}
	}

	shared, _ := clusterFixture(t, 2, 2048, 0)
	tr := &Trace{}
	shared[0].Cfg.Trace = tr
	shared[1].Cfg.Trace = tr
	if _, err := ReceiveCluster(shared, 2); err == nil {
		t.Fatal("expected an error for endpoints sharing one Trace")
	}
}
