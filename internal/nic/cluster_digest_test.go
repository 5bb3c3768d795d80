package nic_test

import (
	"strings"
	"testing"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// The four ReceiveCluster runs of ddtbench's "Sharded cluster" table (8
// endpoints x 1 MiB of 2 KiB blocks, 2 us incast stagger), pinned as
// TestTopologyDigests cases. The table rounds to microseconds, but its
// windows column is exact: a change to the sharded executor's horizon
// moves it, and these digests (which include every picosecond of the
// per-endpoint results) fail in go test, not only in make determinism.

func init() {
	for _, s := range []core.Strategy{core.Specialized, core.RWCP, core.ROCP, core.HPULocal} {
		nic.AddDigestCase("cluster/"+strings.ToLower(s.String()), clusterTableCase(s))
	}
}

func clusterTableCase(s core.Strategy) func(*testing.T, int) ([]any, [][]byte) {
	return func(t *testing.T, workers int) ([]any, [][]byte) {
		const msgBytes, blockInts, endpoints = 1 << 20, 512, 8
		typ := ddt.MustVector(msgBytes/(4*blockInts), blockInts, 2*blockInts, ddt.Int)
		req := core.NewClusterRequest(s, typ, 1, endpoints)
		req.Stagger = 2 * sim.Microsecond
		req.Workers = workers
		res, err := core.RunCluster(req)
		if err != nil {
			t.Fatal(err)
		}
		results := []any{res.Notified, res.Makespan, res.Windows}
		for i, r := range res.Results {
			if !r.Verified {
				t.Fatalf("%v endpoint %d: receive buffer not verified", s, i)
			}
			results = append(results, r.NIC)
		}
		return results, nil
	}
}
