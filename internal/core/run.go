package core

import (
	"bytes"
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

	// The receive scratch comes from a pool and goes back on success; error
	// paths simply drop it to the GC. The packed payload is a shared
	// read-only buffer from the payload cache and is never pooled.
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
		if err := verifyReference(typ, req.Count, packed, dst, hi); err != nil {
			return Result{}, fmt.Errorf("core: %v %w", req.Strategy, err)
		}
		res.Verified = true
		releaseRecvBuf(typ, req.Count, dstBuf)
	} else {
		putBuf(dstBuf)
	}
	return res, nil
}

// releaseRecvBuf returns a verified receive buffer to the clean pool: the
// simulation only wrote the typemap's regions (verifyReference just proved
// every gap is still zero), so re-zeroing those regions — at most the
// message size, not the full extent — restores an all-zero buffer.
func releaseRecvBuf(typ *ddt.Type, count int, dstBuf *[]byte) {
	dst := *dstBuf
	typ.ForEachBlock(count, func(off, size int64) {
		clear(dst[off : off+size])
	})
	putCleanBuf(dstBuf)
}

// verifyReference checks the receive buffer byte-for-byte against the
// reference unpack of the packed stream: a zeroed buffer with the stream
// scattered through the datatype's region program.
//
// For monotone, non-overlapping typemaps (every valid receive datatype) the
// comparison runs in place: each region must equal its slice of the packed
// stream and every gap between regions must still be zero — exactly the
// bytes a reference ddt.Unpack into a zeroed buffer would produce, without
// materializing that buffer. Non-monotone typemaps fall back to the
// materialized reference.
func verifyReference(typ *ddt.Type, count int, packed, dst []byte, hi int64) error {
	monotone := true
	mismatch := false
	var pos, cursor int64 // stream position; end of the previous region
	typ.ForEachBlock(count, func(off, size int64) {
		if !monotone {
			return
		}
		if off < cursor || off+size > hi {
			monotone = false
			return
		}
		// A mismatch stays tentative until the whole walk proves the
		// typemap monotone: with interleaved elements a "gap" legitimately
		// holds data from a later region, and only the fallback can judge.
		if !mismatch {
			if !allZero(dst[cursor:off]) ||
				!bytes.Equal(dst[off:off+size], packed[pos:pos+size]) {
				mismatch = true
			} else {
				pos += size
			}
		}
		cursor = off + size
	})
	if monotone {
		if mismatch || !allZero(dst[cursor:hi]) {
			return fmt.Errorf("receive buffer differs from reference unpack")
		}
		return nil
	}

	want := getZeroBuf(hi)
	if err := ddt.Unpack(typ, count, packed, *want); err != nil {
		return err
	}
	if !bytes.Equal(dst, *want) {
		return fmt.Errorf("receive buffer differs from reference unpack")
	}
	putBuf(want)
	return nil
}

// zeros backs the vectorized gap checks of verifyReference.
var zeros [64 << 10]byte

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
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
