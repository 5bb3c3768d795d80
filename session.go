package spinddt

import (
	"spinddt/internal/core"
)

// The session layer is the persistent-state API an MPI library would sit
// on (paper Sec. 3.2.6 and Fig. 18): commit a datatype once, hold its
// handle, and post many receives — and sends — against it without ever
// rebuilding the offload state.
//
//	sess := spinddt.NewSession(spinddt.NewSessionConfig())
//	col, _ := sess.Commit(columnType)       // plan + offload state, once
//	ep := sess.Endpoint(spinddt.EndpointConfig{})
//	for rank := 0; rank < peers; rank++ {   // an alltoall's receive side
//		futures[rank], _ = ep.Post(col, 1, spinddt.PostOpts{Seed: int64(rank + 1)})
//	}
//	ep.Flush()                              // one batched NIC residency pass
//
// Flush simulates every pending message through ONE device pass: the
// messages contend for the endpoint NIC's inbound parser, HPUs, DMA
// channels and NIC memory, the way a real exchange's traffic does. The
// first post of a handle reports the host preparation cost; every later
// post reports zero (the Fig. 18 amortization). Run, RunSend and
// RunTransfer remain as one-shot wrappers over a private session and
// produce byte-identical results to earlier releases.
//
// The device model is symmetric (the sPIN offload builds packets with the
// same resolver the receiver scatters with), and so is the
// endpoint: Send posts an outbound message against a handle and
// FlushSends runs every pending send through ONE shared outbound device —
// gather handlers contend for the endpoint's HPUs, the host read path and
// the injection link, and the produced wire stream is byte-verified
// against the reference Pack:
//
//	for rank := 0; rank < peers; rank++ {   // the exchange's send side
//		sfutures[rank], _ = ep.Send(col, 1, spinddt.SendOpts{Seed: int64(rank + 1)})
//	}
//	ep.FlushSends()                         // one batched outbound device pass
//
// The handle's receive strategy selects the sender pipeline: offloaded
// strategies gather on the NIC (PtlProcessPut), HostUnpack packs on the
// CPU, PortalsIovec streams regions as the CPU announces them. The first
// send of a (handle, count) build reports the gather-state preparation;
// later sends report zero — the receive-side amortization, mirrored.

// Session owns a Backend plus the shared offload build caches; it is the
// library-lifetime object. Sessions are safe for concurrent use.
type Session = core.Session

// SessionConfig configures a Session; NewSessionConfig returns the
// paper's defaults.
type SessionConfig = core.SessionConfig

// NewSessionConfig returns the paper's default session configuration:
// the 200 Gbit/s sPIN NIC, the calibrated cost model, ε = 0.2, the serial
// executor and the simulated backend.
func NewSessionConfig() SessionConfig { return core.NewSessionConfig() }

// NewSession returns a Session with its own cache set.
func NewSession(cfg SessionConfig) *Session { return core.NewSession(cfg) }

// TypeHandle is a committed datatype bound to a session and a strategy —
// what MPI_Type_commit returns in a library built on this API. Obtain one
// with Session.Commit (auto-selected strategy) or Session.CommitAs;
// release it with Free.
type TypeHandle = core.TypeHandle

// SelectStrategy picks the receive strategy an MPI library would commit a
// datatype with: vector-like layouts take the specialized handler,
// everything else RW-CP.
func SelectStrategy(t *Datatype) Strategy { return core.SelectStrategy(t) }

// Endpoint is one receiving NIC of a session: Post accumulates messages,
// Flush executes them in a single batched device pass.
type Endpoint = core.Endpoint

// EndpointConfig configures one endpoint (per-endpoint trace collection).
type EndpointConfig = core.EndpointConfig

// PostOpts tunes one posted message; the zero value is a valid default.
type PostOpts = core.PostOpts

// Future is the deferred result of one posted message; Wait flushes the
// endpoint if needed and returns the message's Result.
type Future = core.Future

// SendOpts tunes one posted send; SendReport reports it (including the
// first-send-only gather preparation cost); SendFuture is its deferred
// result, resolved by Endpoint.FlushSends or Wait.
type (
	SendOpts   = core.SendOpts
	SendReport = core.SendReport
	SendFuture = core.SendFuture
)

// Backend executes the data movement of posted messages through one
// method, Exchange, which runs a batch of sends, a batch of receives, or
// sends paired with the receives they pace. The exchange format is the
// committed datatype's plan (its region program): SimBackend (the
// default) replays it through the simulated sPIN NIC's offload state,
// MemBackend executes it directly on host memory — the
// differential-testing oracle. Custom backends implement the same
// interface against BackendEnv, BackendSend and BackendMessage. Over a
// real wire, the spinsimd daemon (cmd/spinsimd) commits each datatype once
// and scatters the packed streams that arrive against the committed
// handle.
type (
	Backend        = core.Backend
	BackendEnv     = core.BackendEnv
	BackendSend    = core.BackendSend
	BackendMessage = core.BackendMessage
	SimBackend     = core.SimBackend
	MemBackend     = core.MemBackend
)

// ErrSessionClosed reports a commit or post on a Session after Close.
var ErrSessionClosed = core.ErrSessionClosed
