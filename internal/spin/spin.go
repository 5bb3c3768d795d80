// Package spin defines the sPIN programming interface of Hoefler et al.
// (SC'17) as extended by the paper: execution contexts binding per-packet
// handlers to matched messages, handler arguments with DMA access to host
// memory, packet scheduling policies (default and blocked round-robin with
// virtual HPUs), and the handler cost breakdown the evaluation reports.
//
// Handlers in this simulator run functionally — they really scatter packet
// bytes into the host buffer through the DMA interface — and return the
// modeled HPU runtime, split into the init/setup/processing phases of the
// paper's Fig. 12.
package spin

import (
	"spinddt/internal/sim"
)

// DMAWriter is the handlers' fire-and-forget path to host memory
// (PtlHandlerDMAToHostNB). Implementations copy the data into the host
// buffer and account the request in the simulated DMA engine. Every
// payload-handler write carries the paper's NO_EVENT semantics: no host
// event fires, so only the completion handler signals the host.
type DMAWriter interface {
	// Write stores data at hostOff in the destination buffer.
	Write(hostOff int64, data []byte)
}

// DMAReader is the gather handlers' path from host memory into NIC memory
// (the sender-side mirror of DMAWriter: PtlHandlerDMAFromHost).
// Implementations fetch the host bytes at hostOff into dst and account the
// request in the simulated DMA read engine.
type DMAReader interface {
	// Read fetches len(dst) bytes at hostOff from the source buffer.
	Read(hostOff int64, dst []byte)
}

// HandlerArgs carries one packet into a handler execution.
type HandlerArgs struct {
	// StreamOff is the packet payload's byte offset in the message stream.
	StreamOff int64
	// Payload is the packet payload. On the receive path it is the arrived
	// bytes resident in NIC memory; on the send path it is the packet's
	// slice of the outgoing wire stream, which the gather handler fills
	// (nil when the gather runs timing-only).
	Payload []byte
	// PktBytes is the packet payload size (== len(Payload) whenever the
	// payload is materialized; also set for timing-only gathers).
	PktBytes int64
	// MsgSize is the total message size in bytes.
	MsgSize int64
	// PktIndex is the packet's position in the message.
	PktIndex int
	// VHPU is the virtual HPU executing the handler (scheduling unit).
	VHPU int
	// DMA issues writes toward host memory (receive-side scatter handlers;
	// nil on the send path).
	DMA DMAWriter
	// DMARead fetches from host memory (sender-side gather handlers; nil
	// on the receive path).
	DMARead DMAReader
}

// Breakdown splits a handler runtime into the three phases of Fig. 12:
// Init (handler start, argument preparation, state copies), Setup
// (datatype-processing function startup including catch-up) and Processing
// (per-region work and DMA issue).
type Breakdown struct {
	Init       sim.Time
	Setup      sim.Time
	Processing sim.Time
}

// Total returns the handler runtime.
func (b Breakdown) Total() sim.Time { return b.Init + b.Setup + b.Processing }

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.Init += other.Init
	b.Setup += other.Setup
	b.Processing += other.Processing
}

// Result is what a handler execution reports back to the scheduler.
type Result struct {
	// Runtime is the modeled HPU occupancy, normally Breakdown.Total().
	Runtime sim.Time
	// Breakdown details the runtime phases.
	Breakdown Breakdown
	// Err aborts the simulation; handlers only fail on internal errors.
	Err error
}

// Handler processes one packet. It must issue whatever DMA writes the
// packet requires and return the modeled runtime.
type Handler func(*HandlerArgs) Result

// Policy is a packet scheduling policy. The zero value is the default sPIN
// policy: every packet may run on any idle HPU with maximum parallelism.
// Setting DeltaP (and VHPUs) selects the paper's blocked round-robin
// policy: sequences of DeltaP consecutive packets are assigned to the same
// virtual HPU and processed serially (never two HPUs on one sequence at
// the same time).
type Policy struct {
	// DeltaP is the sequence length in packets; 0 or 1 with VHPUs 0 means
	// the default policy.
	DeltaP int
	// VHPUs is the number of virtual HPUs sequences are distributed over;
	// 0 derives one vHPU per sequence.
	VHPUs int
}

// Default reports whether this is the unrestricted default policy.
func (p Policy) Default() bool { return p.DeltaP <= 0 }

// SequenceOf returns the vHPU owning packet pkt, or -1 under the default
// policy (any HPU).
func (p Policy) SequenceOf(pkt int) int {
	if p.Default() {
		return -1
	}
	seq := pkt / p.DeltaP
	if p.VHPUs > 0 {
		return seq % p.VHPUs
	}
	return seq
}

// ExecutionContext binds handlers and their NIC-memory state to a matched
// message, mirroring the paper's Sec. 3.2.2. The paper's DDT contexts
// install no header handler; the field exists for completeness.
type ExecutionContext struct {
	// Name identifies the strategy in reports.
	Name string
	// Header, Payload and Completion handle the respective packet kinds.
	// Header and Completion may be nil. Payload also runs for header and
	// completion packets when they carry payload bytes.
	Header     Handler
	Payload    Handler
	Completion Handler
	// Policy selects the packet scheduling policy.
	Policy Policy
	// NICMemBytes is the NIC memory occupied by the context's state
	// (datatype descriptions, checkpoints, offset lists) — the occupancy
	// the paper plots in Fig. 13 and annotates in Fig. 16.
	NICMemBytes int64
}
