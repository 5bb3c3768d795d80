package experiments

import (
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/loggops"
)

// FFT2DPoint is one node count of the Fig. 19 strong-scaling study.
type FFT2DPoint struct {
	Nodes     int
	HostMs    float64
	RWCPMs    float64
	SpeedupPc float64
}

// Fig19FFT2D reproduces Fig. 19: FFT2D strong scaling on an n x n complex
// matrix (paper: n=20480), transposed with MPI datatypes through two
// alltoalls. The per-message unpack cost of the receive datatype comes from
// the host CPU model (host) or from the NIC simulation (RW-CP), plugged
// into LogGOPS traces, the paper's methodology.
func Fig19FFT2D(n int, nodeCounts []int) ([]FFT2DPoint, *Table, error) {
	if nodeCounts == nil {
		nodeCounts = []int{64, 128, 256, 512, 1024}
	}
	hostCfg := hostcpu.DefaultConfig()
	// The FFT2D unpack runs inside the application's compute loop: small
	// working sets stay cache-resident (unlike the cold-cache
	// microbenchmarks), which is what shrinks the unpack overhead — and
	// the offload speedup — at scale.
	hostCfg.ColdCaches = false
	points := make([]FFT2DPoint, len(nodeCounts))
	err := sweep(len(nodeCounts), func(idx int) error {
		p := nodeCounts[idx]
		rows := n / p
		if rows == 0 {
			return fmt.Errorf("fig19: %d nodes exceed matrix dimension %d", p, n)
		}
		// The transpose receive datatype from one peer: rows x rows complex
		// elements within the local rows x n panel (2 doubles per element).
		typ := ddt.MustVector(rows, 2*rows, 2*n, ddt.Double)

		// Host: per-message CPU unpack cost.
		unpack := hostcpu.UnpackCost(hostCfg, typ, 1)

		// RW-CP: the NIC unpacks in-line; charge only the processing time
		// the NIC adds beyond pure wire streaming.
		req := core.NewRequest(core.RWCP, typ, 1)
		req.Verify = false // byte-verified elsewhere; this is a timing sweep
		rwcp, err := core.Run(req)
		if err != nil {
			return err
		}
		wire := req.NIC.Fabric.ByteTime(rwcp.MsgBytes)
		extra := rwcp.ProcTime - wire
		if extra < 0 {
			extra = 0
		}

		// The replay is sharded into rank-group domains under lookahead
		// L. The makespan is identical to the serial replay
		// (loggops.RunSharded); only wall-clock changes.
		cfg := loggops.FFT2DConfig{
			N: n, ElemBytes: 16, FlopRate: 6.5e9,
			Net:     loggops.NextGen(),
			Domains: 8, Workers: clusterWorkers(),
		}
		hostRun := cfg
		hostRun.UnpackPerMsg = unpack.Time
		offRun := cfg
		offRun.ExtraRecvLatency = extra

		th, err := hostRun.Run(p)
		if err != nil {
			return err
		}
		to, err := offRun.Run(p)
		if err != nil {
			return err
		}
		points[idx] = FFT2DPoint{
			Nodes:     p,
			HostMs:    th.Milliseconds(),
			RWCPMs:    to.Milliseconds(),
			SpeedupPc: (float64(th)/float64(to) - 1) * 100,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Fig. 19: FFT2D strong scaling, n=%d", n),
		Note: "runtime and RW-CP speedup over host-based unpacking;" +
			" paper: up to ~26% at 64 nodes, shrinking with scale",
		Header: []string{"nodes", "host_ms", "rwcp_ms", "speedup_%"},
	}
	for _, pt := range points {
		t.AddRow(d64(int64(pt.Nodes)), fmt.Sprintf("%.1f", pt.HostMs),
			fmt.Sprintf("%.1f", pt.RWCPMs), f1(pt.SpeedupPc))
	}
	return points, t, nil
}
