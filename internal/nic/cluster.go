package nic

import (
	"errors"
	"fmt"

	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// This file is the one runner besides RunExchange: the cluster receive
// shards the receive model across a fabric domain that owns the wire and
// mails packet deliveries to per-endpoint NIC+HPU domains, and a host
// domain that collects completion notifications over the PCIe round trip.
// Lookaheads come straight from the link models: fabric.Config.Lookahead
// (the wire latency) bounds fabric-to-NIC influence,
// pcie.Config.NotifyLatency bounds NIC-to-host influence. Between
// synchronization windows the endpoint domains execute in parallel;
// results are byte-identical to the serial executor by the sharded
// engine's determinism contract. The fabric domain is why the cluster
// receive stays its own runner: its per-packet wire events set the
// windows a cluster run reports, which RunExchange's topologies (where
// the fabric is folded into the senders' lookahead) would change.

// ClusterEndpoint describes one receiver of a sharded cluster receive.
type ClusterEndpoint struct {
	Cfg  Config
	PT   *portals.PT
	Bits portals.MatchBits
	// Packed is the endpoint's inbound packed stream; Host its memory.
	Packed []byte
	Host   []byte
	// Start is when the message's first bit leaves its sender.
	Start sim.Time
	// Order optionally permutes packet delivery (nil = in-order).
	Order []int
}

// ClusterResult reports a sharded cluster receive.
type ClusterResult struct {
	// Results holds each endpoint's receive result, endpoint order.
	Results []Result
	// Notified is the time the host domain observed each endpoint's
	// completion (Done plus the PCIe notification round trip).
	Notified []sim.Time
	// Makespan is the latest event fired in any domain.
	Makespan sim.Time
	// Windows is the number of conservative synchronization rounds; it is
	// a model property, identical for every executor width.
	Windows uint64
}

// clusterFabric is the fabric domain's state: one wire event per packet,
// mailed to the owning endpoint a wire latency later.
type clusterFabric struct {
	shard *sim.Shard
	links []fabricLink
}

// fabricLink wires the fabric domain to one endpoint domain.
type fabricLink struct {
	shard *sim.Shard
	rx    sim.Ctx // the endpoint's rxSim handle in its own engine
	wire  sim.Time
}

// clusterHost is the host domain's state: completion observations.
type clusterHost struct {
	shard    *sim.Shard
	notified []sim.Time
}

// Typed event kinds of the sharded cluster: a is the endpoint index; for
// wire events b is the delivery slot.
var (
	kindClusterWire   sim.Kind
	kindClusterNotify sim.Kind
)

func init() {
	kindClusterWire = sim.RegisterKind("nic.clusterWire", func(ctx any, a, b int64) {
		f := ctx.(*clusterFabric)
		l := f.links[a]
		f.shard.PostRemote(l.shard, f.shard.Now()+l.wire, kindRxArrival, l.rx, b, 0)
	})
	kindClusterNotify = sim.RegisterKind("nic.clusterNotify", func(ctx any, a, _ int64) {
		h := ctx.(*clusterHost)
		h.notified[a] = h.shard.Now()
	})
}

// ReceiveCluster simulates every endpoint's receive in one sharded
// simulation executed by up to workers goroutines (workers <= 1 runs the
// serial executor; both fire identical event sequences). Each endpoint's
// Result matches what the endpoint would report in isolation up to event
// tie-breaking; serial and parallel executions of the cluster itself are
// byte-identical.
func ReceiveCluster(eps []ClusterEndpoint, workers int) (ClusterResult, error) {
	if len(eps) == 0 {
		return ClusterResult{}, errors.New("nic: empty cluster")
	}
	for i := range eps {
		// Per-endpoint traces are fine: each endpoint domain appends only
		// to its own Trace. What the sim.Shard no-shared-mutable-state
		// contract forbids is two concurrent endpoint domains writing one
		// Trace, so sharing a pointer across endpoints is rejected.
		if t := eps[i].Cfg.Trace; t != nil {
			for j := range eps[:i] {
				if eps[j].Cfg.Trace == t {
					return ClusterResult{}, fmt.Errorf("nic: endpoints %d and %d share one Trace; cluster endpoints need distinct traces", j, i)
				}
			}
		}
	}
	pe := sim.AcquireParallel(workers)
	defer sim.ReleaseParallel(pe)

	// Fabric domain: its lookahead is the minimum wire latency of any link.
	minWire := eps[0].Cfg.Fabric.Lookahead()
	for _, ep := range eps[1:] {
		if w := ep.Cfg.Fabric.Lookahead(); w < minWire {
			minWire = w
		}
	}
	if minWire <= 0 {
		return ClusterResult{}, fmt.Errorf("nic: fabric wire latency %v cannot synchronize a sharded cluster", minWire)
	}
	fabShard := pe.NewShard("fabric", minWire)
	fab := &clusterFabric{shard: fabShard}
	fabCtx := fabShard.Bind(fab)

	// Endpoint domains, then the host domain (so makespan includes the
	// final notification).
	sims := make([]*rxSim, len(eps))
	epShards := make([]*sim.Shard, len(eps))
	for i, ep := range eps {
		notifyLat := ep.Cfg.PCIe.NotifyLatency()
		if notifyLat <= 0 {
			return ClusterResult{}, fmt.Errorf("nic: endpoint %d PCIe notify latency %v cannot synchronize a sharded cluster", i, notifyLat)
		}
		epShards[i] = pe.NewShard("nic", notifyLat)
	}
	hostShard := pe.NewShard("host", sim.InfiniteLookahead)
	host := &clusterHost{shard: hostShard, notified: make([]sim.Time, len(eps))}
	hostCtx := hostShard.Bind(host)

	for i := range eps {
		ep := &eps[i]
		arrivals, err := ep.Cfg.Fabric.AppendSchedule(nil, int64(len(ep.Packed)), ep.Start, ep.Order)
		if err != nil {
			return ClusterResult{}, fmt.Errorf("nic: endpoint %d: %w", i, err)
		}
		dev, err := acquireRxDevice(&epShards[i].Engine, ep.Cfg)
		if err != nil {
			return ClusterResult{}, fmt.Errorf("nic: endpoint %d: %w", i, err)
		}
		s, err := dev.newMessage(ep.PT, ep.Bits, ep.Packed, ep.Host, arrivals)
		if err != nil {
			return ClusterResult{}, fmt.Errorf("nic: endpoint %d: %w", i, err)
		}
		idx := int64(i)
		s.xShard, s.xHost = epShards[i], hostShard
		s.xCtx, s.xIdx, s.xNotifyLat = hostCtx, idx, ep.Cfg.PCIe.NotifyLatency()
		sims[i] = s

		// The fabric owns each packet until it is on the endpoint's wire:
		// one local event per packet at (arrival - wire latency), mailed
		// onward with exactly the wire latency, so delivery times equal
		// the serial schedule tick for tick.
		wire := ep.Cfg.Fabric.WireLatency
		fab.links = append(fab.links, fabricLink{shard: epShards[i], rx: s.self, wire: wire})
		for slot := range arrivals {
			fabShard.Post(arrivals[slot].At-wire, kindClusterWire, fabCtx, idx, int64(slot))
		}
	}

	makespan := pe.Run()

	res := ClusterResult{
		Results:  make([]Result, len(eps)),
		Notified: host.notified,
		Makespan: makespan,
		Windows:  pe.Windows(),
	}
	for i, s := range sims {
		r, err := s.finish()
		if err != nil {
			return ClusterResult{}, fmt.Errorf("nic: endpoint %d: %w", i, err)
		}
		res.Results[i] = r
	}
	for _, s := range sims {
		dev := s.dev
		releaseRxSim(s)
		releaseRxDevice(dev)
	}
	return res, nil
}
