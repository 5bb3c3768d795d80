package core

import (
	"bytes"
	"errors"
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// Request describes one unpack experiment: a datatype arriving as a packed
// message, processed by one strategy.
type Request struct {
	Strategy Strategy
	Type     *ddt.Type
	Count    int

	NIC  nic.Config
	Cost CostModel
	Host hostcpu.Config

	// Epsilon is the checkpoint heuristic tolerance.
	Epsilon float64
	// PktBufBytes feeds the heuristic's packet-buffer check (0 = off).
	PktBufBytes int64
	// ForceIntervalBytes overrides the checkpoint interval (ablations).
	ForceIntervalBytes int64
	// DisableNormalization skips datatype normalization (ablations).
	DisableNormalization bool
	// Order permutes packet delivery (nil = in-order).
	Order []int
	// Verify compares the receive buffer against the reference unpack
	// byte-for-byte after the simulation.
	Verify bool
	// Seed generates the synthetic message payload.
	Seed int64
}

// NewRequest returns a Request with the paper's default configuration.
func NewRequest(s Strategy, typ *ddt.Type, count int) Request {
	return Request{
		Strategy: s,
		Type:     typ,
		Count:    count,
		NIC:      nic.DefaultConfig(),
		Cost:     DefaultCostModel(),
		Host:     hostcpu.DefaultConfig(),
		Epsilon:  0.2,
		Verify:   true,
		Seed:     1,
	}
}

// Result reports one unpack experiment.
type Result struct {
	Strategy Strategy
	MsgBytes int64
	// Gamma is the average number of contiguous regions per packet.
	Gamma float64
	// ProcTime is the message processing time: first byte on the wire to
	// last byte in the receive buffer (plus CPU unpack for the host
	// baseline).
	ProcTime sim.Time
	// NIC is the device-level result (handler breakdowns, DMA stats...).
	NIC nic.Result
	// NICBytes is the NIC memory occupied by the strategy state.
	NICBytes int64
	// Prep is the host-side preparation cost (offloaded strategies).
	Prep HostPrep
	// Interval/Checkpoints/Choice describe the checkpointed strategies.
	Interval    int64
	Checkpoints int
	Choice      IntervalChoice
	// SpecKind labels the specialized variant used.
	SpecKind string
	// RecvTime and UnpackCPU split the host baseline's phases.
	RecvTime  sim.Time
	UnpackCPU sim.Time
	// TrafficBytes is the main-memory volume of the receive+unpack as
	// Fig. 17 counts it.
	TrafficBytes int64
	// Verified is set when the receive buffer matched the reference.
	Verified bool
}

// ThroughputGbps returns message size over processing time.
func (r Result) ThroughputGbps() float64 {
	if r.ProcTime <= 0 {
		return 0
	}
	return float64(r.MsgBytes) * 8 / r.ProcTime.Seconds() / 1e9
}

// SpeedupOver returns how much faster this result is than other.
func (r Result) SpeedupOver(other Result) float64 {
	if r.ProcTime <= 0 {
		return 0
	}
	return float64(other.ProcTime) / float64(r.ProcTime)
}

// Run simulates one unpack experiment end to end. It is a thin one-shot
// wrapper over the private package session: commit, post, flush, verify in
// one call, against the simulated backend and the shared default caches.
// Results are byte-identical to the pre-session API.
func Run(req Request) (Result, error) { return oneShot.Run(req) }

// Run executes one unpack experiment on the session: it synthesizes the
// packed message, builds the strategy (handlers, checkpoints, lists)
// through the session caches, runs it on the session backend (or the
// host/iovec baselines) and verifies the resulting receive buffer against
// the reference ddt.Unpack. Unlike Endpoint posts, a one-shot Run always
// reports the full cold-build host preparation cost.
func (s *Session) Run(req Request) (Result, error) {
	typ := req.Type.Commit()
	msgSize := typ.Size() * int64(req.Count)
	if msgSize <= 0 {
		return Result{}, fmt.Errorf("core: empty message")
	}
	lo, hi := typ.Footprint(req.Count)
	if lo < 0 {
		return Result{}, fmt.Errorf("core: receive datatype has negative lower bound %d", lo)
	}

	// The receive scratch comes from a pool and goes back once verified;
	// error paths before that simply drop it to the GC. The packed payload
	// is a shared read-only buffer from the payload cache and is never
	// pooled.
	packed := payloadFor(req.Seed, msgSize)
	dstBuf := getZeroBuf(hi)
	dst := *dstBuf

	res := Result{
		Strategy: req.Strategy,
		MsgBytes: msgSize,
		Gamma:    typ.Gamma(req.Count, req.NIC.Fabric.MTU),
	}

	env := BackendEnv{NIC: req.NIC, Host: req.Host}

	switch req.Strategy {
	case HostUnpack:
		// RDMA the packed stream to a staging buffer, then unpack on the
		// CPU with cold caches.
		stagingBuf := getBuf(msgSize)
		staging := *stagingBuf
		pt := singleMatchPT(&portals.ME{Match: 1, Region: portals.HostRegion{Length: msgSize}})
		nicRes, err := s.flushOne(env, BackendMessage{
			PT: pt, Bits: 1, Region: portals.HostRegion{Length: msgSize},
			Packed: packed, Dst: staging, Order: req.Order,
		})
		if err != nil {
			return Result{}, err
		}
		cost := hostcpu.UnpackCost(req.Host, typ, req.Count)
		if err := ddt.Unpack(typ, req.Count, staging, dst); err != nil {
			return Result{}, err
		}
		putBuf(stagingBuf)
		res.NIC = nicRes
		res.RecvTime = nicRes.ProcTime
		res.UnpackCPU = cost.Time
		res.ProcTime = nicRes.ProcTime + cost.Time
		res.TrafficBytes = msgSize + cost.TrafficBytes

	case PortalsIovec:
		regions := typ.Flatten(req.Count)
		if req.Order != nil {
			return Result{}, fmt.Errorf("core: the iovec baseline assumes in-order delivery")
		}
		nicRes, err := s.backend.Iovec(env, regions, packed, dst)
		if err != nil {
			return Result{}, err
		}
		listBytes := int64(len(regions)) * 16
		res.NIC = nicRes
		res.ProcTime = nicRes.ProcTime
		res.NICBytes = nicRes.NICMemBytes
		// The iovec list lives in host memory and is fetched over PCIe.
		res.TrafficBytes = msgSize + listBytes
		res.Prep = HostPrep{
			CPUTime:   hostcpu.WalkCost(req.Host, int64(len(regions))),
			CopyBytes: listBytes,
		}

	default:
		off, err := s.caches.buildOffload(req.Strategy, BuildParams{
			Type: typ, Count: req.Count,
			NIC: req.NIC, Cost: req.Cost, Host: req.Host,
			Epsilon: req.Epsilon, PktBufBytes: req.PktBufBytes,
			ForceIntervalBytes:   req.ForceIntervalBytes,
			DisableNormalization: req.DisableNormalization,
		})
		if err != nil {
			return Result{}, err
		}
		nicRes, err := s.flushOne(env, BackendMessage{
			Type: typ, Count: req.Count, PT: off.PT(), Bits: 1,
			Packed: packed, Dst: dst, Order: req.Order,
		})
		if err != nil {
			return Result{}, err
		}
		res.NIC = nicRes
		res.ProcTime = nicRes.ProcTime
		res.NICBytes = off.Ctx.NICMemBytes
		res.Prep = off.Prep
		res.Interval = off.Interval
		res.Checkpoints = off.Checkpoints
		res.Choice = off.Choice
		res.SpecKind = off.SpecKind
		res.TrafficBytes = msgSize // zero-copy: only the data lands in memory
		off.Release()
	}

	if req.Verify {
		if err := verifyRecv(typ, req.Count, packed, dst, hi, dstBuf); err != nil {
			return Result{}, fmt.Errorf("core: %v %w", req.Strategy, err)
		}
		res.Verified = true
	} else {
		putBuf(dstBuf)
	}
	return res, nil
}

// errRecvMismatch is verifyReference's verdict on a receive buffer that
// differs from the reference unpack.
var errRecvMismatch = errors.New("receive buffer differs from reference unpack")

// verifyReference checks the receive buffer byte-for-byte against the
// reference unpack of the packed stream: a zeroed buffer of hi bytes with
// the stream scattered through the datatype's region program.
//
// For monotone typemaps (every valid receive datatype) the plan's Verify
// kernel compares in place: each region must equal its slice of the
// packed stream and every other byte of dst[:hi] must still be zero —
// exactly the bytes a reference ddt.Unpack into a zeroed buffer would
// produce, without materializing that buffer. Non-monotone typemaps, and
// types without a plan, fall back to the materialized reference.
func verifyReference(typ *ddt.Type, count int, packed, dst []byte, hi int64) error {
	return verifyRecv(typ, count, packed, dst, hi, nil)
}

// verifyRecv is verifyReference that also hands a pooled receive buffer
// (dstBuf, whose slice is dst) back to its pool: re-zeroed to the clean
// pool when it verifies, to the dirty pool when it does not. The monotone
// kernel clears each region as it checks it, so a verified buffer is zero
// again after one walk. With dstBuf nil, dst is the caller's and is never
// written.
func verifyRecv(typ *ddt.Type, count int, packed, dst []byte, hi int64, dstBuf *[]byte) error {
	var err error
	if p := typ.Plan(); p != nil && p.Monotone(count) {
		if !p.Verify(count, packed, dst[:hi], dstBuf != nil) {
			err = errRecvMismatch
		}
	} else if err = verifyMaterialized(typ, count, packed, dst[:hi]); err == nil && dstBuf != nil {
		clear(dst[:hi])
	}
	if dstBuf != nil {
		if err != nil {
			putBuf(dstBuf)
		} else {
			putCleanBuf(dstBuf)
		}
	}
	return err
}

// verifyMaterialized compares dst with a reference ddt.Unpack of packed
// into a zeroed buffer of len(dst) bytes.
func verifyMaterialized(typ *ddt.Type, count int, packed, dst []byte) error {
	want := getZeroBuf(int64(len(dst)))
	if err := ddt.Unpack(typ, count, packed, *want); err != nil {
		return err
	}
	if !bytes.Equal(dst, *want) {
		return errRecvMismatch
	}
	putBuf(want)
	return nil
}

func singleMatchPT(me *portals.ME) *portals.PT {
	ni := portals.NewNI(1)
	pt, err := ni.PT(0)
	if err != nil {
		panic(err)
	}
	if err := pt.Append(portals.PriorityList, me); err != nil {
		panic(err)
	}
	return pt
}
