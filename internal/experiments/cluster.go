package experiments

import (
	"fmt"
	"runtime"

	"spinddt/internal/core"
	"spinddt/internal/sim"
)

// clusterWorkers returns the executor width of the multi-domain runs: one
// worker per usable CPU. The width never affects results, only
// wall-clock, so every rendered table is width-invariant (`make
// determinism` renders them at GOMAXPROCS=1 and 4).
func clusterWorkers() int { return runtime.GOMAXPROCS(0) }

// ShardedClusterExchange reports the sharded multi-endpoint experiment:
// endpoints receivers of the Fig. 13 workload (2 KiB blocks) simulated as
// one conservative-lookahead sharded run — fabric, per-endpoint NIC and
// host domains — with an incast stagger between senders. The window count
// and every timing are byte-identical between the serial and parallel
// executors; wall-clock scales with cores (BenchmarkSimulationSharded).
func ShardedClusterExchange(endpoints int, msgBytes int64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Sharded cluster: %d endpoints x %d MiB receive (2 KiB blocks)", endpoints, msgBytes>>20),
		Note: "one parallel discrete-event simulation: fabric + per-endpoint NIC+HPU + host domains,\n" +
			"conservative lookahead = wire latency (fabric) / PCIe notify round trip (NIC->host);\n" +
			"first/last = host-observed completions; windows = synchronization rounds (executor-invariant)",
		Header: []string{"strategy", "proc_us", "first_done_us", "last_done_us", "makespan_us", "windows", "verified"},
	}
	for _, s := range []core.Strategy{core.Specialized, core.RWCP, core.ROCP, core.HPULocal} {
		req := core.NewClusterRequest(s, fig8Vector(2048, msgBytes), 1, endpoints)
		req.Stagger = 2 * sim.Microsecond
		req.Workers = clusterWorkers()
		res, err := core.RunCluster(req)
		if err != nil {
			return nil, fmt.Errorf("cluster %v: %w", s, err)
		}
		first, last := res.Notified[0], res.Notified[0]
		verified := 0
		var proc sim.Time
		for i, r := range res.Results {
			if res.Notified[i] < first {
				first = res.Notified[i]
			}
			if res.Notified[i] > last {
				last = res.Notified[i]
			}
			if r.Verified {
				verified++
			}
			if r.ProcTime > proc {
				proc = r.ProcTime
			}
		}
		t.AddRow(s.String(), usec(proc.Microseconds()),
			usec(first.Microseconds()), usec(last.Microseconds()),
			usec(res.Makespan.Microseconds()), d64(int64(res.Windows)),
			fmt.Sprintf("%d/%d", verified, endpoints))
	}
	return t, nil
}
