package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// ClusterRequest describes one sharded multi-endpoint experiment: a
// cluster of identical receivers, each unpacking its own copy of the
// datatype message (distinct payloads, staggered sender starts), simulated
// as one sharded run — a fabric domain pacing every wire, one NIC+HPU
// domain per endpoint, and a host domain collecting completions. This is
// the Fig. 13 scalability workload lifted from one NIC to a cluster, and
// the workload BenchmarkSimulationSharded measures.
type ClusterRequest struct {
	Strategy Strategy
	Type     *ddt.Type
	Count    int
	// Endpoints is the number of receiving NICs (one domain each).
	Endpoints int
	// Stagger offsets successive senders' first bits (an incast ramp);
	// zero starts every message together.
	Stagger sim.Time

	NIC     nic.Config
	Cost    CostModel
	Host    hostcpu.Config
	Epsilon float64
	Verify  bool
	Seed    int64

	// Workers bounds the executor parallelism: 1 runs the serial
	// executor, 0 defaults to Endpoints. Cluster results are
	// byte-identical for every width.
	Workers int
}

// NewClusterRequest returns a ClusterRequest with the paper's default
// configuration.
func NewClusterRequest(s Strategy, typ *ddt.Type, count, endpoints int) ClusterRequest {
	return ClusterRequest{
		Strategy:  s,
		Type:      typ,
		Count:     count,
		Endpoints: endpoints,
		NIC:       nic.DefaultConfig(),
		Cost:      DefaultCostModel(),
		Host:      hostcpu.DefaultConfig(),
		Epsilon:   0.2,
		Verify:    true,
		Seed:      1,
	}
}

// ClusterResult reports a sharded cluster experiment.
type ClusterResult struct {
	// Results holds each endpoint's receive result (Strategy, ProcTime,
	// handler and DMA statistics populated as in Run).
	Results []Result
	// Notified is when the host domain observed each completion.
	Notified []sim.Time
	// Makespan is the time the last domain fired its last event.
	Makespan sim.Time
	// Windows is the number of conservative synchronization rounds.
	Windows uint64
}

// RunCluster builds and runs the sharded cluster experiment against the
// shared default caches (one-shot wrapper over the package session).
func RunCluster(req ClusterRequest) (ClusterResult, error) {
	return oneShot.RunCluster(req)
}

// RunCluster builds and runs the sharded cluster experiment on the
// session: the offload state is built once, every endpoint instantiates
// from that template, and the instances go back to the pool when the run
// completes.
func (s *Session) RunCluster(req ClusterRequest) (ClusterResult, error) {
	if req.Endpoints <= 0 {
		return ClusterResult{}, fmt.Errorf("core: cluster needs endpoints, have %d", req.Endpoints)
	}
	switch req.Strategy {
	case HostUnpack, PortalsIovec:
		return ClusterResult{}, fmt.Errorf("core: cluster endpoints require an offloaded strategy, not %v", req.Strategy)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = req.Endpoints
	}
	typ := req.Type.Commit()
	msgSize := typ.Size() * int64(req.Count)
	if msgSize <= 0 {
		return ClusterResult{}, fmt.Errorf("core: empty message")
	}
	lo, hi := typ.Footprint(req.Count)
	if lo < 0 {
		return ClusterResult{}, fmt.Errorf("core: receive datatype has negative lower bound %d", lo)
	}

	eps := make([]nic.ClusterEndpoint, req.Endpoints)
	offs := make([]*Offload, req.Endpoints)
	packs := make([][]byte, req.Endpoints)
	dsts := make([]*[]byte, req.Endpoints)
	for i := range eps {
		// Each endpoint gets its own offload instance: the immutable parts
		// (dataloops, checkpoint masters) live in the shared template, the
		// mutable handler state (e.g. RW-CP's live checkpoints) is
		// per-instance, so endpoint domains share no writable state.
		var off *Offload
		var err error
		if i == 0 {
			off, err = s.caches.buildOffload(req.Strategy, BuildParams{
				Type: typ, Count: req.Count,
				NIC: req.NIC, Cost: req.Cost, Host: req.Host, Epsilon: req.Epsilon,
			})
		} else {
			off, err = offs[0].Instantiate()
		}
		if err != nil {
			return ClusterResult{}, err
		}
		offs[i] = off
		packs[i] = payloadFor(req.Seed+int64(i), msgSize)
		dsts[i] = getZeroBuf(hi)
		eps[i] = nic.ClusterEndpoint{
			Cfg:    req.NIC,
			PT:     off.PT(),
			Bits:   1,
			Packed: packs[i],
			Host:   *dsts[i],
			Start:  sim.Time(i) * req.Stagger,
		}
	}

	nicRes, err := nic.ReceiveCluster(eps, workers)
	if err != nil {
		return ClusterResult{}, err
	}

	res := ClusterResult{
		Results:  make([]Result, req.Endpoints),
		Notified: nicRes.Notified,
		Makespan: nicRes.Makespan,
		Windows:  nicRes.Windows,
	}
	for i := range eps {
		r := Result{
			Strategy: req.Strategy,
			MsgBytes: msgSize,
			Gamma:    typ.Gamma(req.Count, req.NIC.Fabric.MTU),
			NIC:      nicRes.Results[i],
			ProcTime: nicRes.Results[i].ProcTime,
			NICBytes: offs[i].Ctx.NICMemBytes,
			Prep:     offs[i].Prep,
			Interval: offs[i].Interval, Checkpoints: offs[i].Checkpoints,
			Choice:       offs[i].Choice,
			SpecKind:     offs[i].SpecKind,
			TrafficBytes: msgSize,
		}
		if req.Verify {
			if err := verifyRecv(typ, req.Count, packs[i], *dsts[i], hi, dsts[i]); err != nil {
				return ClusterResult{}, fmt.Errorf("core: cluster endpoint %d %v: %w", i, req.Strategy, err)
			}
			r.Verified = true
		} else {
			putBuf(dsts[i])
		}
		res.Results[i] = r
	}
	// Every endpoint's bookkeeping has been copied out: the instances can
	// rejoin the pool. (Early error returns just drop them to the GC.)
	for _, off := range offs {
		off.Release()
	}
	return res, nil
}
