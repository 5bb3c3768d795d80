package main

import (
	"fmt"
	"math/rand"
	"net"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/server"
)

// load is one workload set up for a trial.
type load interface {
	// op runs closed-loop operation i on client w, checks its output and
	// returns the verified payload bytes.
	op(w, i int, tr *tracer) (int64, error)
	// ladder runs after every traced op, outside its timing. It may replay
	// the op's input one layer at a time and record each layer's time in
	// tr; each load chooses which ops it replays.
	ladder(w, i int, tr *tracer) error
	// mark starts the window counters reports on; it is called just before
	// the timed ops.
	mark()
	// counters returns the per-layer metrics the load derives from counters
	// since mark, over ops operations.
	counters(ops int) map[string]float64
	// close releases the load's sockets, goroutines and pooled state,
	// best effort: the trial's results are already taken.
	close()
}

// workload is one traffic mix. A trial runs a fixed number of ops, sized
// from rate so that it takes about the requested time; the count is a
// multiple of quantum, one balanced input deck, so every seed gives a
// trial the same mix of work.
type workload struct {
	name    string
	clients int     // concurrent closed-loop clients, each waiting for its reply
	rate    float64 // ops/s on a 2-core x86 box
	quantum int
	warmup  int // untimed ops run before the first timed op
	// setup builds the load for ops operations; a traced trial also gets
	// the state its ladder replays need.
	setup func(seed int64, ops int, traced bool) (load, error)
	// spans are the per-layer metrics read off the spans the workload's
	// own ops record.
	spans []spanMetric
}

// spanMetric reports the median duration of a span, in microseconds times
// scale.
type spanMetric struct {
	metric, span string
	scale        float64
}

// commonSpans are read off every workload's traced ops.
var commonSpans = []spanMetric{{"bench.verify_us", "bench.verify", 1}}

var workloads = []workload{
	{name: "serve-steady", clients: 1, rate: 1850, quantum: steadyDeck, warmup: 200, setup: newSteady,
		spans: []spanMetric{{"server.post_us", "client.PostPacked", 1}, {"server.flush_us", "client.Flush", 1}}},
	{name: "serve-churn", clients: 2, rate: 2900, quantum: churnMissEvery, warmup: 2 * churnPool, setup: newChurn,
		spans: []spanMetric{
			{"server.open_us", "client.Open", 1}, {"server.commit_us", "client.CommitAuto", 1},
			{"server.send_us", "client.Send", 1}, {"server.free_us", "client.Free", 1},
			{"server.close_us", "client.CloseSession", 1},
		}},
	{name: "sim-apps", clients: 1, rate: 550, quantum: len(appStrategies) * len(appInstances), warmup: len(appStrategies) * len(appInstances), setup: newApps,
		spans: appSpans()},
	{name: "sim-halo", clients: 1, rate: 250, quantum: len(core.OffloadStrategies), warmup: 2 * len(core.OffloadStrategies), setup: newHalo,
		spans: []spanMetric{
			{"core.build_offload_us", "core.BuildOffload", 1},
			{"core.instantiate_ns", "core.Offload.Instantiate", 1e3 / (haloRanks*haloDirs - 1)},
		}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fill fills b with a seeded pseudo-random byte stream.
func fill(seed int64, b []byte) {
	rand.New(rand.NewSource(seed)).Read(b)
}

// ladderType is the ROADMAP's served-path ladder type: 256 blocks of 64
// ints at a 128-int stride, a 64 KiB message.
func ladderType() *ddt.Type { return ddt.MustVector(256, 64, 128, ddt.Int).Commit() }

// expect is one flush record the benchmark expects back.
type expect struct {
	id    uint32
	bytes uint64
}

// checkRecords verifies a flush response record by record: right future,
// OK status, verified by the server's byte comparison, right size.
func checkRecords(recs []server.FutureStatus, want ...expect) error {
	if len(recs) != len(want) {
		return fmt.Errorf("flush returned %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		w := want[i]
		if r.ID != w.id || r.Status != server.StatusOK || !r.Verified || r.Bytes != w.bytes {
			return fmt.Errorf("flush record %d = %+v, want id %d, OK, verified, %d bytes", i, r, w.id, w.bytes)
		}
	}
	return nil
}

// newDaemon starts an in-process session daemon (MemBackend) on a
// loopback UDP socket.
func newDaemon() (*server.Server, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return server.New(conn, server.Config{MaxSessions: 1 << 20}), nil
}
