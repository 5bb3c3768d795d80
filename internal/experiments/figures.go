package experiments

import (
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/pulp"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// Fig8BlockSizes is the paper's Fig. 8 x-axis.
var Fig8BlockSizes = []int64{4, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// fig8Vector builds the microbenchmark vector: blocks of blockBytes with a
// stride of twice the block size, msgBytes of data total.
func fig8Vector(blockBytes, msgBytes int64) *ddt.Type {
	count := int(msgBytes / blockBytes)
	blockInts := int(blockBytes / 4)
	return ddt.MustVector(count, blockInts, 2*blockInts, ddt.Int)
}

// Fig02Latency reproduces Fig. 2: the latency of a one-byte put through the
// plain RDMA path and through a minimal sPIN handler, with the component
// breakdown and the relative sPIN overhead (paper: +24.4%).
func Fig02Latency() (*Table, error) {
	cfg := nic.DefaultConfig()
	packed := []byte{0x42}

	run := func(ctx *spin.ExecutionContext) (sim.Time, error) {
		ni := portals.NewNI(1)
		pt, err := ni.PT(0)
		if err != nil {
			return 0, err
		}
		me := &portals.ME{Match: 1, Ctx: ctx, Region: portals.HostRegion{Length: 1}}
		if err := pt.Append(portals.PriorityList, me); err != nil {
			return 0, err
		}
		res, err := nic.RunExchange([]nic.ExchangeEndpoint{{Cfg: cfg, Recvs: []nic.BatchMessage{{
			PT: pt, Bits: 1, Packed: packed, Host: make([]byte, 1),
		}}}}, 1)
		if err != nil {
			return 0, err
		}
		return res.Recvs[0][0].Done, nil
	}

	rdma, err := run(nil)
	if err != nil {
		return nil, err
	}
	echo := &spin.ExecutionContext{
		Name: "echo",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			a.DMA.Write(a.StreamOff, a.Payload)
			// Trivial handler: argument load, one destination computation,
			// one DMA write command (~110 cycles at 800 MHz).
			rt := 137 * sim.Nanosecond
			return spin.Result{Runtime: rt, Breakdown: spin.Breakdown{Processing: rt}}
		},
	}
	spinT, err := run(echo)
	if err != nil {
		return nil, err
	}
	overhead := (float64(spinT)/float64(rdma) - 1) * 100

	t := &Table{
		Title: "Fig. 2: latency of a one-byte put",
		Note: "components: network (wire latency + serialization), NIC (parse/match" +
			" + for sPIN: payload staging, HER dispatch, handler), PCIe (write + completion)\n" +
			"paper: sPIN adds ~24.4% over the RDMA path",
		Header: []string{"path", "total_us", "network_ns", "nic_ns", "pcie_ns", "overhead_%"},
	}
	network := cfg.Fabric.WireLatency + cfg.Fabric.PacketTime(1)
	pcie := cfg.PCIe.WriteTime(1) + cfg.PCIeWriteLatency
	nicRDMA := rdma - network - pcie
	nicSpin := spinT - network - pcie
	t.AddRow("RDMA", usec(rdma.Microseconds()), f1(network.Nanoseconds()),
		f1(nicRDMA.Nanoseconds()), f1(pcie.Nanoseconds()), "0.0")
	t.AddRow("sPIN", usec(spinT.Microseconds()), f1(network.Nanoseconds()),
		f1(nicSpin.Nanoseconds()), f1(pcie.Nanoseconds()), f1(overhead))
	return t, nil
}

// Fig08Throughput reproduces Fig. 8: unpack throughput of an MPI vector as
// a function of block size (stride = 2x block) for the four offloaded
// strategies and the host baseline. msgBytes is 4 MiB in the paper.
func Fig08Throughput(msgBytes int64, blockSizes []int64) (*Table, error) {
	if blockSizes == nil {
		blockSizes = Fig8BlockSizes
	}
	strategies := []core.Strategy{core.Specialized, core.RWCP, core.ROCP, core.HPULocal, core.HostUnpack}
	t := &Table{
		Title: fmt.Sprintf("Fig. 8: unpack throughput (Gbit/s), %d MiB vector message, 16 HPUs", msgBytes>>20),
		Note: "stride = 2x block size; paper: Specialized at line rate from 64B blocks," +
			" all offloaded strategies below Host at 4B",
		Header: []string{"block_B", "Specialized", "RW-CP", "RO-CP", "HPU-local", "Host"},
	}
	err := sweepRows(t, len(blockSizes), func(i int) ([]string, error) {
		b := blockSizes[i]
		row := []string{d64(b)}
		typ := fig8Vector(b, msgBytes)
		for _, s := range strategies {
			req := core.NewRequest(s, typ, 1)
			res, err := core.Run(req)
			if err != nil {
				return nil, fmt.Errorf("block %d, %v: %w", b, s, err)
			}
			row = append(row, f1(res.ThroughputGbps()))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig09cPULPBandwidth reproduces Fig. 9c: PULP DMA bandwidth (L2 -> L1 ->
// PCIe) vs block size.
func Fig09cPULPBandwidth() *Table {
	cfg := pulp.DefaultConfig()
	t := &Table{
		Title:  "Fig. 9c: PULP DMA bandwidth vs block size",
		Note:   "paper: 192 Gbit/s at 256B, above the 200 Gbit/s line rate beyond",
		Header: []string{"block_B", "bandwidth_Gbps", "above_line_rate"},
	}
	for b := int64(256); b <= 128*1024; b *= 2 {
		bw := cfg.DMABandwidthGbps(b)
		t.AddRow(d64(b), f1(bw), fmt.Sprintf("%v", bw >= cfg.LineRateGbps))
	}
	return t
}

// Fig10PULPvsARM reproduces Fig. 10: RW-CP datatype-processing throughput
// on the PULP prototype vs the gem5 ARM setup, 1 MiB vector message,
// packets preloaded (not network-capped).
func Fig10PULPvsARM() *Table {
	cfg := pulp.DefaultConfig()
	t := &Table{
		Title: "Fig. 10: RW-CP processing throughput, PULP (RTL model) vs ARM (gem5 model)",
		Note: "1 MiB message, 2 KiB packets, blocked-RR dp=4, 32 cores;" +
			" paper: PULP slower below 256B (L2 contention), line rate beyond, exceeds line rate (preloaded)",
		Header: []string{"block_B", "PULP_Gbps", "ARM_Gbps"},
	}
	for b := int64(32); b <= 16384; b *= 2 {
		p := cfg.RWCPKernel(1<<20, b, 2048, 4)
		t.AddRow(d64(b), f1(p.PulpGbps), f1(p.ArmGbps))
	}
	return t
}

// Fig11PULPIPC reproduces Fig. 11: RW-CP handler IPC on PULP per block
// size.
func Fig11PULPIPC() *Table {
	cfg := pulp.DefaultConfig()
	t := &Table{
		Title:  "Fig. 11: RW-CP instructions per cycle on PULP",
		Note:   "paper medians: ~0.14 at 32B rising to ~0.26 at 16KiB",
		Header: []string{"block_B", "IPC"},
	}
	for b := int64(32); b <= 16384; b *= 2 {
		t.AddRow(d64(b), fmt.Sprintf("%.3f", cfg.IPC(b)))
	}
	return t
}

// Fig12HandlerBreakdown reproduces Fig. 12: the payload-handler runtime
// split into init/setup/processing for γ in 1..16 (block sizes 2048/γ).
func Fig12HandlerBreakdown(msgBytes int64) (*Table, error) {
	t := &Table{
		Title: "Fig. 12: payload handler runtime breakdown (us per handler)",
		Note: "gamma = contiguous regions per 2KiB packet; paper: HPU-local dominated by" +
			" catch-up (setup), RO-CP by checkpoint copy (init) + catch-up, RW-CP ~2x Specialized",
		Header: []string{"strategy", "gamma", "init_us", "setup_us", "proc_us", "total_us"},
	}
	strategies := []core.Strategy{core.HPULocal, core.ROCP, core.RWCP, core.Specialized}
	gammas := []int64{1, 2, 4, 8, 16}
	err := sweepRows(t, len(strategies)*len(gammas), func(i int) ([]string, error) {
		s := strategies[i/len(gammas)]
		gamma := gammas[i%len(gammas)]
		block := int64(2048) / gamma
		typ := fig8Vector(block, msgBytes)
		res, err := core.Run(core.NewRequest(s, typ, 1))
		if err != nil {
			return nil, fmt.Errorf("%v gamma %d: %w", s, gamma, err)
		}
		runs := float64(res.NIC.HandlerRuns)
		b := res.NIC.Handler
		return []string{s.String(), d64(gamma),
			usec(b.Init.Microseconds() / runs),
			usec(b.Setup.Microseconds() / runs),
			usec(b.Processing.Microseconds() / runs),
			usec(b.Total().Microseconds() / runs)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig13Scalability reproduces Fig. 13: (a) receive throughput vs HPUs at
// 2 KiB blocks; (b) NIC memory vs block size at 16 HPUs; (c) NIC memory vs
// HPUs at 2 KiB blocks.
func Fig13Scalability(msgBytes int64) (*Table, *Table, *Table, error) {
	strategies := []core.Strategy{core.Specialized, core.RWCP, core.ROCP, core.HPULocal}

	a := &Table{
		Title:  "Fig. 13a: receive throughput vs HPUs (2 KiB blocks)",
		Note:   "paper: Specialized reaches line rate with 2 HPUs",
		Header: []string{"HPUs", "Specialized", "RW-CP", "RO-CP", "HPU-local"},
	}
	hpuCounts := []int{2, 4, 8, 16, 32}
	if err := sweepRows(a, len(hpuCounts), func(i int) ([]string, error) {
		hpus := hpuCounts[i]
		row := []string{d64(int64(hpus))}
		for _, s := range strategies {
			req := core.NewRequest(s, fig8Vector(2048, msgBytes), 1)
			req.NIC.HPUs = hpus
			res, err := core.Run(req)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(res.ThroughputGbps()))
		}
		return row, nil
	}); err != nil {
		return nil, nil, nil, err
	}

	b := &Table{
		Title:  "Fig. 13b: NIC memory occupancy (KiB) vs block size (16 HPUs)",
		Note:   "paper: checkpointed variants shrink the interval for larger blocks (more memory)",
		Header: []string{"block_B", "Specialized", "RW-CP", "RO-CP", "HPU-local"},
	}
	blockSizes := []int64{4, 32, 128, 512, 2048, 8192}
	if err := sweepRows(b, len(blockSizes), func(i int) ([]string, error) {
		blk := blockSizes[i]
		row := []string{d64(blk)}
		for _, s := range strategies {
			req := core.NewRequest(s, fig8Vector(blk, msgBytes), 1)
			res, err := core.Run(req)
			if err != nil {
				return nil, err
			}
			row = append(row, kib(res.NICBytes))
		}
		return row, nil
	}); err != nil {
		return nil, nil, nil, err
	}

	c := &Table{
		Title:  "Fig. 13c: NIC memory occupancy (KiB) vs HPUs (2 KiB blocks)",
		Note:   "paper: HPU-local replicates segments per HPU; RW-CP adds checkpoints with HPUs",
		Header: []string{"HPUs", "Specialized", "RW-CP", "RO-CP", "HPU-local"},
	}
	cHPUs := []int{4, 8, 16, 32}
	if err := sweepRows(c, len(cHPUs), func(i int) ([]string, error) {
		hpus := cHPUs[i]
		row := []string{d64(int64(hpus))}
		for _, s := range strategies {
			req := core.NewRequest(s, fig8Vector(2048, msgBytes), 1)
			req.NIC.HPUs = hpus
			res, err := core.Run(req)
			if err != nil {
				return nil, err
			}
			row = append(row, kib(res.NICBytes))
		}
		return row, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	return a, b, c, nil
}

// Fig14DMAQueue reproduces Fig. 14: maximum DMA-write-queue occupancy and
// total DMA writes per strategy and γ.
func Fig14DMAQueue(msgBytes int64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 14: max DMA write queue occupancy (16 HPUs)",
		Note:   "paper: stays under ~160 requests - PCIe is not the bottleneck",
		Header: []string{"gamma", "total_writes", "Specialized", "RW-CP", "RO-CP", "HPU-local"},
	}
	gammas := []int64{1, 2, 4, 8, 16}
	err := sweepRows(t, len(gammas), func(g int) ([]string, error) {
		gamma := gammas[g]
		block := int64(2048) / gamma
		typ := fig8Vector(block, msgBytes)
		row := []string{d64(gamma)}
		var totalWrites int64
		var depths []string
		for i, s := range []core.Strategy{core.Specialized, core.RWCP, core.ROCP, core.HPULocal} {
			res, err := core.Run(core.NewRequest(s, typ, 1))
			if err != nil {
				return nil, err
			}
			if i == 0 {
				totalWrites = res.NIC.DMA.Writes
			}
			depths = append(depths, d64(int64(res.NIC.DMA.MaxQueueDepth)))
		}
		row = append(row, d64(totalWrites))
		return append(row, depths...), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig15DMAQueueOverTime reproduces Fig. 15: the DMA-queue depth over time
// for γ=16, including the host checkpoint-preparation overhead before
// message processing starts.
func Fig15DMAQueueOverTime(msgBytes int64, points int) (*Table, error) {
	t := &Table{
		Title: "Fig. 15: DMA write queue depth over time (gamma=16, 128B blocks)",
		Note: "per strategy: host prep overhead (checkpoint build+copy), then sampled" +
			" queue depths across message processing; slow handlers keep the queue shallow",
		Header: []string{"strategy", "host_prep_us", "proc_us", "peak", "depth_series"},
	}
	typ := fig8Vector(128, msgBytes)
	strategies := []core.Strategy{core.HPULocal, core.ROCP, core.RWCP, core.Specialized}
	err := sweepRows(t, len(strategies), func(i int) ([]string, error) {
		s := strategies[i]
		req := core.NewRequest(s, typ, 1)
		req.NIC.CollectDMASeries = true
		res, err := core.Run(req)
		if err != nil {
			return nil, err
		}
		samples := res.NIC.DMA.Samples
		series := ""
		if len(samples) > 0 {
			stride := len(samples) / points
			if stride < 1 {
				stride = 1
			}
			for k := 0; k < len(samples); k += stride {
				if series != "" {
					series += " "
				}
				series += d64(int64(samples[k].Depth))
			}
		}
		return []string{s.String(),
			usec(res.Prep.Total().Microseconds()),
			usec(res.ProcTime.Microseconds()),
			d64(int64(res.NIC.DMA.MaxQueueDepth)),
			series}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig09bArea reports the published 22 nm synthesis results of the sPIN
// accelerator (Sec. 4.4). These are constants from the paper — silicon
// area cannot be re-derived in software — included so the harness covers
// every figure.
func Fig09bArea() *Table {
	a := pulp.PublishedArea()
	t := &Table{
		Title: "Fig. 9b: sPIN accelerator area breakdown (published 22nm synthesis constants)",
		Note: fmt.Sprintf("%.0f MGE, %.1f mm2 at 85%% density, %.0f W @%.0f GHz;"+
			" ~45%% of the BlueField SoC compute-subsystem budget",
			a.TotalMGE, a.TotalMM2, a.PowerWatts, a.ClockGHz),
		Header: []string{"component", "share_%"},
	}
	t.AddRow("4 clusters (32 RV32 cores + L1)", f1(a.ClusterPercent))
	t.AddRow("L2 SPM (8 MiB)", f1(a.L2Percent))
	t.AddRow("interconnect, DWCs, buffers", f1(a.InterconnPercent))
	t.AddRow("L1 SPM share within one cluster", f1(a.L1PercentCluster))
	return t
}
