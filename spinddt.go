// Package spinddt is a simulation-backed reproduction of "Network-
// Accelerated Non-Contiguous Memory Transfers" (Di Girolamo et al., SC'19):
// NIC-offloaded processing of MPI derived datatypes on sPIN-capable network
// cards.
//
// The public API exposes four layers:
//
//   - Datatypes: the MPI derived-datatype constructors (Vector, Indexed,
//     Struct, Subarray, ...), their typemap algebra and reference
//     Pack/Unpack. Committing a datatype lowers its typemap once into an
//     execution plan (internal/plan) that owns the region program — the
//     exchange format every layer below consumes — and selects a
//     contiguous memmove, a strided wide-move kernel or the general offset
//     list, reused by every pack, unpack, wire verification and transport
//     checksum afterwards.
//   - Sessions and handles: NewSession owns a Backend plus the offload
//     build caches; Session.Commit returns a persistent TypeHandle whose
//     strategy state (specialized handlers, checkpoint sets, offset lists)
//     is built exactly once and amortized across every post — the paper's
//     Fig. 18 reuse argument as an API, shaped the way an MPI library
//     holds a committed type. Session.Stats reports which plans and
//     gather resolvers the session actually selected.
//   - Endpoints and backends: Session.Endpoint is one NIC with both
//     halves of the paper's symmetric device model. On the receive side,
//     Endpoint.Post enqueues messages against committed handles and Flush
//     executes the batch in a single simulated inbound residency pass; on
//     the send side, Endpoint.Send enqueues outbound messages and
//     FlushSends runs them through one shared outbound device, where
//     sPIN gather handlers execute the lowered gather resolver (contig /
//     vector arithmetic / offset-list binary search) the receiver's
//     specialized handler scatters with. Either way, real exchanges (alltoall, halo)
//     contend for the device — HPUs, DMA/host-read paths, wire, NIC
//     memory — the way real traffic does. The Backend interface decides
//     what executes a batch of sends or receives, or of sends paired with
//     the receives they pace (a coupled transfer): SimBackend replays
//     committed plans through the modeled 200 Gbit/s sPIN NIC, MemBackend
//     executes them directly on host memory (the differential-testing
//     oracle for both directions); custom backends plug in the same way.
//   - Strategies and one-shot runs: the paper's datatype-processing
//     implementations — Specialized handlers, the general RW-CP / RO-CP /
//     HPU-local strategies, the host-unpack and Portals-4 iovec baselines,
//     the sender-side pack+send / streaming-puts / outbound-sPIN paths —
//     driven either through sessions or through the one-shot Run /
//     RunSend / RunTransfer wrappers, which commit, post and flush a
//     private session per call and byte-verify every receive buffer
//     against the reference unpack. RunTransfer couples the two device
//     halves in ONE simulation joined by the fabric: each packet's
//     injection completion becomes its arrival a wire latency later, so
//     sender backpressure paces the receiver instead of being summed in
//     from a closed-form cost model.
//
// See session.go for the session-layer walkthrough, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured results of
// every figure.
package spinddt

import (
	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
)

// Datatype is an MPI derived datatype. Build one with the constructors
// below, commit it, and pass it to Run.
type Datatype = ddt.Type

// Predefined elementary datatypes.
var (
	Char   = ddt.Char
	Byte   = ddt.Byte
	Short  = ddt.Short
	Int    = ddt.Int
	Long   = ddt.Long
	Float  = ddt.Float
	Double = ddt.Double
)

// Elementary returns a basic datatype of the given byte size.
func Elementary(name string, size int64) *Datatype { return ddt.Elementary(name, size) }

// Contiguous returns count consecutive elements of base
// (MPI_Type_contiguous).
func Contiguous(count int, base *Datatype) (*Datatype, error) {
	return ddt.NewContiguous(count, base)
}

// Vector returns count blocks of blockLen base elements strided by stride
// base extents (MPI_Type_vector).
func Vector(count, blockLen, stride int, base *Datatype) (*Datatype, error) {
	return ddt.NewVector(count, blockLen, stride, base)
}

// HVector is Vector with a byte stride (MPI_Type_create_hvector).
func HVector(count, blockLen int, strideBytes int64, base *Datatype) (*Datatype, error) {
	return ddt.NewHVector(count, blockLen, strideBytes, base)
}

// Indexed returns blocks of blockLens[i] elements at displs[i] base extents
// (MPI_Type_indexed).
func Indexed(blockLens, displs []int, base *Datatype) (*Datatype, error) {
	return ddt.NewIndexed(blockLens, displs, base)
}

// IndexedBlock returns fixed-length blocks at the given displacements
// (MPI_Type_create_indexed_block).
func IndexedBlock(blockLen int, displs []int, base *Datatype) (*Datatype, error) {
	return ddt.NewIndexedBlock(blockLen, displs, base)
}

// Struct returns a heterogeneous datatype (MPI_Type_create_struct).
func Struct(blockLens []int, displs []int64, types []*Datatype) (*Datatype, error) {
	return ddt.NewStruct(blockLens, displs, types)
}

// Subarray returns an n-dimensional subarray in row-major order
// (MPI_Type_create_subarray).
func Subarray(sizes, subSizes, starts []int, base *Datatype) (*Datatype, error) {
	return ddt.NewSubarray(sizes, subSizes, starts, base)
}

// Resized overrides a type's lower bound and extent
// (MPI_Type_create_resized).
func Resized(base *Datatype, lb, extent int64) (*Datatype, error) {
	return ddt.NewResized(base, lb, extent)
}

// Normalize rewrites a datatype into an equivalent simpler form, making
// more types eligible for the O(1)-state specialized handler.
func Normalize(t *Datatype) *Datatype { return ddt.Normalize(t) }

// Pack gathers count elements of the type from src into a new buffer.
func Pack(t *Datatype, count int, src []byte) ([]byte, error) { return ddt.Pack(t, count, src) }

// Unpack scatters a packed stream into dst; the reference semantics every
// offloaded strategy reproduces byte-for-byte.
func Unpack(t *Datatype, count int, packed, dst []byte) error {
	return ddt.Unpack(t, count, packed, dst)
}

// Strategy selects a receive-side datatype-processing implementation.
type Strategy = core.Strategy

// The receive-side strategies of the paper.
const (
	// Specialized uses datatype-specific handlers (vector arithmetic or
	// offset lists with binary search).
	Specialized = core.Specialized
	// RWCP uses progressing checkpoints with blocked round-robin
	// scheduling — the paper's best general strategy.
	RWCP = core.RWCP
	// ROCP clones read-only checkpoint snapshots per packet.
	ROCP = core.ROCP
	// HPULocal replicates the MPITypes segment per virtual HPU.
	HPULocal = core.HPULocal
	// HostUnpack is the baseline: RDMA to a staging buffer, CPU unpack.
	HostUnpack = core.HostUnpack
	// PortalsIovec is the Portals 4 scatter-list baseline.
	PortalsIovec = core.PortalsIovec
)

// OffloadStrategies lists the sPIN-based strategies.
var OffloadStrategies = core.OffloadStrategies

// AllStrategies lists every strategy including the baselines.
var AllStrategies = core.AllStrategies

// Request describes one unpack experiment; Result reports it.
type (
	Request = core.Request
	Result  = core.Result
)

// NICConfig configures the simulated NIC; CostModel the HPU handler costs;
// HostConfig the host CPU baseline.
type (
	NICConfig  = nic.Config
	CostModel  = core.CostModel
	HostConfig = hostcpu.Config
)

// DefaultNICConfig returns the paper's NIC: 16 HPUs, 200 Gbit/s, 2 KiB
// packets, PCIe Gen4 x32, 4 MiB NIC memory.
func DefaultNICConfig() NICConfig { return nic.DefaultConfig() }

// DefaultCostModel returns the calibrated handler cost constants.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// DefaultHostConfig returns the i7-4770-like host profile.
func DefaultHostConfig() HostConfig { return hostcpu.DefaultConfig() }

// NewRequest returns a Request with the paper's default configuration.
func NewRequest(s Strategy, typ *Datatype, count int) Request {
	return core.NewRequest(s, typ, count)
}

// Run simulates one message receive end to end: it synthesizes the packed
// stream, builds the strategy state (handlers, checkpoints, offset lists),
// replays the packet arrivals through the NIC model, and verifies the
// receive buffer byte-for-byte against the reference Unpack. It is a
// one-shot wrapper over a private session; libraries that reuse datatypes
// should hold a Session and commit TypeHandles instead, amortizing the
// state build across posts.
func Run(req Request) (Result, error) { return core.Run(req) }

// SendStrategy selects a sender-side implementation.
type SendStrategy = core.SendStrategy

// The sender-side strategies of the paper's Fig. 4.
const (
	PackSend      = core.PackSend
	StreamingPuts = core.StreamingPuts
	OutboundSpin  = core.OutboundSpin
)

// SendRequest describes a sender-side experiment; SendResult reports it.
type (
	SendRequest = core.SendRequest
	SendResult  = nic.SendResult
)

// NewSendRequest returns a SendRequest with default configuration.
func NewSendRequest(s SendStrategy, typ *Datatype, count int) SendRequest {
	return core.NewSendRequest(s, typ, count)
}

// RunSend simulates sending count elements of the datatype.
func RunSend(req SendRequest) (SendResult, error) { return core.RunSend(req) }

// TransferRequest describes a coupled end-to-end transfer: a sender-side
// gather strategy feeding a receiver-side scatter strategy, possibly with
// different layouts on the two sides (an on-the-fly transform).
type (
	TransferRequest = core.TransferRequest
	TransferResult  = core.TransferResult
)

// NewTransferRequest returns a TransferRequest with default configuration.
func NewTransferRequest(send SendStrategy, recv Strategy, typ *Datatype, count int) TransferRequest {
	return core.NewTransferRequest(send, recv, typ, count)
}

// RunTransfer simulates the whole path — gather, wire, scatter — and
// byte-verifies the receive buffer against the reference pipeline.
func RunTransfer(req TransferRequest) (TransferResult, error) { return core.RunTransfer(req) }
