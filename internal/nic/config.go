// Package nic is the discrete-event model of the paper's sPIN-capable
// 200 Gbit/s NIC (Fig. 1). The model is symmetric — the paper's offload
// builds packets with the same datatype walk the receiver scatters with —
// so the package is organized around a direction-generic device core
// (device: the physical HPU pool with FIFO dispatch of virtual HPUs, and
// the NIC-memory accounting of resident execution contexts) with one
// specialization per direction:
//
//   - rxDevice (device.go) is the receive side: an inbound engine that
//     parses packets and runs Portals 4 matching, payload handlers
//     scattering into host memory through a multi-channel DMA write
//     engine and a PCIe Gen4 x32 host interface, and the non-processing
//     RDMA path. An endpoint's receives contend for the inbound parser,
//     the HPUs, the DMA channels, the PCIe link and NIC memory.
//   - txDevice (tx.go) is the send side: gather handlers resolving a
//     packet's contiguous source regions (outbound sPIN), or CPU-paced
//     pack/streaming pipelines, fetching host data over the PCIe read
//     path and injecting packets in stream order through the shared wire.
//     An endpoint's sends contend for the HPUs, the host read path, the
//     injection link and NIC memory.
//
// # One executor, many topologies
//
// The package exports three runners. RunExchange is the one executor of
// the sPIN model. A run is a topology of endpoints, each one simulation
// domain owning both device halves, plus a host domain collecting
// completion notifications over the PCIe round trip. It substitutes for
// the Cray Slingshot SST model + gem5 setup of the paper's Sec. 5.1. A
// one-NIC run is a one-endpoint topology:
//
//   - a receive batch is one endpoint with Recvs;
//   - a send batch is one endpoint whose Sends have Dst < 0: the sends are
//     uncoupled, their packets leave into an unmodeled fabric;
//   - a coupled transfer is one endpoint whose Sends target its own Recvs:
//     each injection becomes an arrival one wire latency later, so sender
//     backpressure delays the receiver tick for tick.
//
// Exchanges (halo, incast, alltoall) couple sends across endpoints.
// Two rules make every topology deterministic at any executor width:
//
//   - Coupling: a materialized wire stream (TxMessage.Packed) is one
//     NIC's memory, so it couples only within its own endpoint. Across
//     endpoints, bytes move as streamed chunks (below) or are pre-staged
//     in the destination receive.
//   - Lookahead: an endpoint's lookahead is its PCIe notify latency
//     toward the host, tightened to its wire latency only when it couples
//     a send to another endpoint. Same-endpoint and uncoupled sends post
//     nothing across domains.
//
// The other two runners stay separate: ReceiveCluster's fabric domain
// paces every wire of a cluster receive and sets the cluster figure's
// windows; ReceiveIovec models a different device (the Portals 4 iovec
// engine).
//
// # Streamed wire bytes
//
// A coupled send moves real bytes in one of two ways, selected per
// message by the coupling contract (see ExchangeSend):
//
//   - Streamed: the send is functional (TxMessage.Src set, Packed nil, a
//     TxProcessPut gather) and the paired receive leaves BatchMessage.Packed
//     nil. Each packet's wire payload is a pooled MTU-sized chunk the
//     gather handler fills on demand through the committed layout; at
//     injection the chunk moves into the destination receive's per-packet
//     mailbox — strictly before the arrival event is posted, so the
//     cross-domain synchronization window orders the hand-off — and the
//     receive side scatters it into host memory, then returns the chunk
//     to the pool. The packed stream is never materialized: wire memory
//     in flight is bounded by packets in flight, not message size.
//   - Pre-staged: the receive supplies the full packed stream up front
//     (Packed set) — either a timing-only send's pre-packed bytes, or,
//     within one endpoint, the very stream the send fills. The chunked
//     path is tick-for-tick identical to it (handler timing depends only
//     on message geometry, never payload), which
//     TestExchangeStreamedMatchesPreStaged pins down.
//
// # Pooling
//
// Everything a run cycles through — wire chunks, virtual HPUs,
// per-message simulation state, whole device halves (DMA engine
// included), arrival schedules, shard queues — is pooled and rewound
// between runs, so a steady-state run performs a small, flat number of
// allocations regardless of traffic volume
// (TestExchangeSteadyStateAllocBound, TestReceiveSteadyStateAllocBound and
// the bench-gate's B/op / allocs/op tolerances guard this). Only state
// that escapes into results (per-packet injection times, collected DMA
// series, one result array per kind) is freshly allocated or disowned on
// reuse.
package nic

import (
	"spinddt/internal/fabric"
	"spinddt/internal/pcie"
	"spinddt/internal/sim"
)

// Config carries every calibration constant of the NIC model. Defaults
// reproduce the paper's simulation setup; experiments sweep individual
// fields.
type Config struct {
	// HPUs is the number of physical Handler Processing Units (the paper
	// uses 16 for the microbenchmarks, 32 for the full setup).
	HPUs int
	// Fabric is the link model.
	Fabric fabric.Config
	// PCIe is the host interface model. Its ReadLatency doubles as the
	// notify latency, every endpoint's lookahead toward the host domain,
	// so it must be positive for every run.
	PCIe pcie.Config
	// PCIeWriteLatency is the completion latency of a DMA write once it
	// leaves the link (the paper's Fig. 2 shows 266 ns on the PCIe
	// segment).
	PCIeWriteLatency sim.Time

	// NICMemBytes is the handler-visible NIC memory capacity.
	NICMemBytes int64
	// NICMemBandwidth is the NIC memory bandwidth in bytes/s (50 GiB/s in
	// the paper, with 2*HPUs channels).
	NICMemBandwidth float64

	// InboundParse is the per-packet parse occupancy of the inbound engine.
	InboundParse sim.Time
	// MatchTime is the matching-unit occupancy for a header packet.
	MatchTime sim.Time
	// HERDispatch is the latency from inbound completion to handler
	// schedulability (handler execution request creation + scheduling).
	HERDispatch sim.Time

	// DMAChannels is the DMA engine channel count; 0 derives 2*HPUs.
	DMAChannels int
	// DMAChannelOccupancy is the per-request occupancy of one channel.
	DMAChannelOccupancy sim.Time

	// IovecEntries is the NIC-resident scatter-gather list size of the
	// Portals 4 iovec baseline (32 entries, a ConnectX-3).
	IovecEntries int
	// IovecPerRegion is the iovec engine's per-region processing cost.
	IovecPerRegion sim.Time

	// MaxWriteChunks bounds the number of timing events used to spread one
	// handler's DMA writes across its runtime (event-count batching; byte
	// and request accounting stay exact).
	MaxWriteChunks int

	// CollectDMASeries enables recording the DMA queue-depth time series
	// (DMAStats.Samples), needed only by the Fig. 15 study; the depth
	// tracking itself (MaxQueueDepth) is always on.
	CollectDMASeries bool

	// Trace, when non-nil, records the pipeline events of the simulation.
	Trace *Trace
}

// DefaultConfig returns the paper's NIC: 16 HPUs, 200 Gbit/s link, PCIe
// Gen4 x32, 4 MiB NIC memory at 50 GiB/s.
func DefaultConfig() Config {
	return Config{
		HPUs:                16,
		Fabric:              fabric.DefaultConfig(),
		PCIe:                pcie.DefaultConfig(),
		PCIeWriteLatency:    266 * sim.Nanosecond,
		NICMemBytes:         4 << 20,
		NICMemBandwidth:     50 * float64(1<<30),
		InboundParse:        12 * sim.Nanosecond,
		MatchTime:           30 * sim.Nanosecond,
		HERDispatch:         140 * sim.Nanosecond,
		DMAChannels:         0,
		DMAChannelOccupancy: 80 * sim.Nanosecond,
		IovecEntries:        32,
		IovecPerRegion:      4 * sim.Nanosecond,
		MaxWriteChunks:      32,
	}
}

// Channels returns the DMA channel count.
func (c Config) Channels() int {
	if c.DMAChannels > 0 {
		return c.DMAChannels
	}
	return 2 * c.HPUs
}

// NICMemCopyTime returns the NIC-memory occupancy of copying n bytes
// (packet payloads into handler-visible memory).
func (c Config) NICMemCopyTime(n int64) sim.Time {
	return sim.FromSeconds(float64(n) / c.NICMemBandwidth)
}
