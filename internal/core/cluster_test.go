package core

import (
	"reflect"
	"testing"

	"spinddt/internal/ddt"
	"spinddt/internal/sim"
)

// clusterType is a Fig. 13-style vector: 2 KiB blocks, 2x stride.
func clusterType() *ddt.Type { return ddt.MustVector(64, 512, 1024, ddt.Int) } // 128 KiB

// TestRunClusterVerifiedAndExecutorInvariant checks the multi-endpoint
// cluster: every endpoint's buffer verifies against its own payload, and
// the whole ClusterResult is identical across executor widths.
func TestRunClusterVerifiedAndExecutorInvariant(t *testing.T) {
	run := func(workers int) ClusterResult {
		req := NewClusterRequest(RWCP, clusterType(), 1, 5)
		req.Stagger = 2 * sim.Microsecond
		req.Workers = workers
		res, err := RunCluster(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if serial.Windows == 0 || serial.Makespan <= 0 {
		t.Fatalf("degenerate cluster run: %+v", serial)
	}
	for i, r := range serial.Results {
		if !r.Verified {
			t.Fatalf("endpoint %d not verified", i)
		}
		if r.ProcTime <= 0 {
			t.Fatalf("endpoint %d: ProcTime %v", i, r.ProcTime)
		}
		if serial.Notified[i] <= r.NIC.Done {
			t.Fatalf("endpoint %d: notified %v before done %v", i, serial.Notified[i], r.NIC.Done)
		}
	}
	for _, w := range []int{3, 8} {
		if par := run(w); !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: cluster result differs from serial executor", w)
		}
	}
}

// TestRunClusterRejectsHostStrategies documents the cluster's scope.
func TestRunClusterRejectsHostStrategies(t *testing.T) {
	req := NewClusterRequest(HostUnpack, clusterType(), 1, 2)
	if _, err := RunCluster(req); err == nil {
		t.Fatal("expected an error for a host-unpack cluster endpoint")
	}
}
