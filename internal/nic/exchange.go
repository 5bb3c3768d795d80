package nic

import (
	"errors"
	"fmt"
	"sync"

	"spinddt/internal/fabric"
	"spinddt/internal/sim"
)

// This file is the one executor of the NIC model. A run is a topology: a
// list of endpoints, each one simulation domain owning BOTH halves of its
// NIC — an rxDevice its receives contend on and a txDevice its sends
// contend on. A send either couples to a receive slot (of a peer endpoint
// or of its own) or leaves uncoupled into an unmodeled fabric. A coupled
// packet injected at one endpoint arrives at its destination exactly one
// wire latency later, carried by a cross-domain event when it crosses
// endpoints. A host domain collects completion notifications over the PCIe
// round trip. Lookaheads come from the link models (wire latency toward
// peer endpoints, notify latency toward the host), so serial and parallel
// executors fire identical event sequences and every run renders
// byte-identically at any worker count.
//
// A one-NIC run is a topology of one endpoint: a receive batch (Recvs
// only), a send batch (Sends with Dst < 0) or coupled transfers (Sends
// targeting the endpoint's own Recvs).
//
// Functional data crosses domains as streamed wire chunks: a send whose
// Msg.Src is set and Msg.Packed nil gathers each packet's payload into a
// pooled chunk on the sending domain, and the injection hand-off copies the
// chunk reference into the destination message's mailbox slot strictly
// before posting the arrival event — the window barrier between domains
// orders the write against the receiving scatter handler. No per-message
// wire stream is ever materialized, so an exchange's resident wire bytes
// are bounded by the packets concurrently staged on its devices, not by
// message sizes.

// ExchangeSend is one outbound message of an endpoint. When coupled, its
// packet injections cross the fabric and become the destination message's
// arrival schedule.
//
// Three coupling modes exist:
//
//   - Streamed (Msg.Src != nil, Msg.Packed nil, TxProcessPut only): gather
//     handlers read the sender's source buffer and stream each packet's
//     payload to the destination as a pooled wire chunk; the destination
//     receive must leave Packed nil and is scattered from the chunks.
//   - Materialized (Msg.Packed != nil): the send fills or reads a wire
//     stream the destination receive's Packed aliases. The stream is one
//     NIC's memory, so it couples only within its own endpoint.
//   - Timing-only (Msg.Src and Msg.Packed nil): the gather handlers run
//     against no data and the destination receive's Packed buffer must
//     pre-stage the packed bytes the scatter side processes.
type ExchangeSend struct {
	Msg TxMessage
	// Dst names the receiving endpoint and the index of the coupled
	// message in that endpoint's Recvs. A negative Dst leaves the send
	// uncoupled: its packets leave into an unmodeled fabric.
	Dst     int
	DstRecv int
}

// ExchangeEndpoint is one NIC domain of a run.
type ExchangeEndpoint struct {
	Cfg Config
	// Recvs is the endpoint's inbound batch, sharing its rxDevice. A
	// message targeted by an ExchangeSend must leave Arrivals nil (its
	// schedule comes from the fabric) — Start and Order are then ignored;
	// other messages are scheduled from their Start and Order, or take
	// their explicit Arrivals.
	Recvs []BatchMessage
	// Sends is the endpoint's outbound batch, sharing its txDevice.
	Sends []ExchangeSend
}

// ExchangeResult reports one run.
type ExchangeResult struct {
	// Recvs and Sends hold the per-endpoint, per-message results in input
	// order.
	Recvs [][]Result
	Sends [][]SendResult
	// Notified is the time the host domain observed each receive's
	// completion (Done plus the PCIe notification round trip), indexed
	// like Recvs.
	Notified [][]sim.Time
	// Makespan is the latest event fired in any domain; Windows the
	// number of conservative synchronization rounds and Events the number
	// of events fired in all domains (both executor-invariant; the DMA
	// engines' held write completions are not events).
	Makespan sim.Time
	Windows  uint64
	Events   uint64
}

// kindRxArrivalAt delivers a fabric-coupled packet: b carries the arrival
// time, stamped into the receiver's schedule slot a before the ordinary
// arrival path runs. Carrying the time in the event (instead of writing
// the peer's schedule from the sending domain) keeps cross-domain state
// ownership clean.
var kindRxArrivalAt = sim.RegisterKind("nic.rxArrivalAt", func(ctx any, a, b int64) {
	s := ctx.(*rxSim)
	s.arrivals[a].At = sim.Time(b)
	s.onArrival(int(a))
})

// exchangeScratch is the per-run bookkeeping of RunExchange — coupling
// tables, shard/device/simulation rosters and the arrival-schedule list —
// pooled across calls so a steady stream of runs reuses one warm set of
// slices instead of reallocating ~2 dozen of them per run. Only state
// that never escapes into the ExchangeResult lives here; the result
// slices are minted fresh every call.
type exchangeScratch struct {
	coupled      [][]bool
	streamed     [][]bool
	coupledBytes [][]int64
	shards       []*sim.Shard
	hostStore    []clusterHost
	rxDevs       []*rxDevice
	txDevs       []*txDevice
	rxSims       [][]*rxSim
	txSims       [][]*txSim
	schedules    []*[]fabric.Arrival
}

var exchangeScratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// scratchRows resizes a pooled row slice to n zeroed entries, reusing its
// capacity when it suffices.
func scratchRows[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// scratchTable resizes an outer row list WITHOUT clearing, so surviving
// rows keep their capacity across runs; the caller re-sizes every row
// (scratchRows) before reading it.
func scratchTable[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	t := make([][]T, n)
	copy(t, s)
	return t
}

func acquireExchangeScratch(n int) *exchangeScratch {
	sc := exchangeScratchPool.Get().(*exchangeScratch)
	sc.coupled = scratchTable(sc.coupled, n)
	sc.streamed = scratchTable(sc.streamed, n)
	sc.coupledBytes = scratchTable(sc.coupledBytes, n)
	sc.shards = scratchRows(sc.shards, n)
	sc.hostStore = scratchRows(sc.hostStore, n)
	sc.rxDevs = scratchRows(sc.rxDevs, n)
	sc.txDevs = scratchRows(sc.txDevs, n)
	sc.rxSims = scratchTable(sc.rxSims, n)
	sc.txSims = scratchTable(sc.txSims, n)
	sc.schedules = sc.schedules[:0]
	return sc
}

// arrivalBuf draws a pooled arrival buffer and records its handle, so
// release returns it — grown or not — after the run.
func (sc *exchangeScratch) arrivalBuf() *[]fabric.Arrival {
	buf := getArrivalBuf()
	sc.schedules = append(sc.schedules, buf)
	return buf
}

// release returns the pooled arrival schedules and drops every reference
// the scratch still holds (devices, sims, shards are pooled elsewhere and
// must not be pinned between runs), then parks the scratch.
func (sc *exchangeScratch) release() {
	for i, buf := range sc.schedules {
		putArrivalBuf(buf)
		sc.schedules[i] = nil
	}
	sc.schedules = sc.schedules[:0]
	clear(sc.shards)
	clear(sc.hostStore)
	clear(sc.rxDevs)
	clear(sc.txDevs)
	for i := range sc.rxSims {
		clear(sc.rxSims[i])
	}
	for i := range sc.txSims {
		clear(sc.txSims[i])
	}
	exchangeScratchPool.Put(sc)
}

// sendsAcross reports whether endpoint e couples a send to another
// endpoint — the only influence that travels at wire latency.
func sendsAcross(ep *ExchangeEndpoint, e int) bool {
	for i := range ep.Sends {
		if dst := ep.Sends[i].Dst; dst >= 0 && dst != e {
			return true
		}
	}
	return false
}

// RunExchange simulates a topology of endpoints in one sharded simulation
// executed by up to workers goroutines (workers <= 1 runs the serial
// executor; both fire identical event sequences).
//
// Endpoint, domain and per-message simulation state is pooled across
// calls: a steady stream of runs reaches a steady state where the
// simulation layer performs no per-packet or per-megabyte allocations.
func RunExchange(eps []ExchangeEndpoint, workers int) (ExchangeResult, error) {
	if len(eps) == 0 {
		return ExchangeResult{}, errors.New("nic: empty exchange")
	}
	for i := range eps {
		if t := eps[i].Cfg.Trace; t != nil {
			for j := range eps[:i] {
				if eps[j].Cfg.Trace == t {
					return ExchangeResult{}, fmt.Errorf("nic: endpoints %d and %d share one Trace; exchange endpoints need distinct traces", j, i)
				}
			}
		}
	}

	sc := acquireExchangeScratch(len(eps))
	defer sc.release()

	// coupled[e][m] marks receive m of endpoint e as fabric-paced;
	// coupledBytes its sender's message size and streamed whether the
	// sender hands its packets over as wire chunks.
	coupled, streamed, coupledBytes := sc.coupled, sc.streamed, sc.coupledBytes
	var nRecv, nSend int
	for e := range eps {
		nRecv += len(eps[e].Recvs)
		nSend += len(eps[e].Sends)
		coupled[e] = scratchRows(coupled[e], len(eps[e].Recvs))
		streamed[e] = scratchRows(streamed[e], len(eps[e].Recvs))
		coupledBytes[e] = scratchRows(coupledBytes[e], len(eps[e].Recvs))
	}
	for e := range eps {
		for si := range eps[e].Sends {
			snd := &eps[e].Sends[si]
			if snd.Dst < 0 {
				continue // uncoupled: the packets leave into the unmodeled fabric
			}
			if snd.Dst >= len(eps) {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d targets endpoint %d of %d", e, si, snd.Dst, len(eps))
			}
			if snd.DstRecv < 0 || snd.DstRecv >= len(eps[snd.Dst].Recvs) {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d targets receive %d of %d", e, si, snd.DstRecv, len(eps[snd.Dst].Recvs))
			}
			if coupled[snd.Dst][snd.DstRecv] {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d is paced by two sends", snd.Dst, snd.DstRecv)
			}
			if snd.Msg.Packed != nil && snd.Dst != e {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d: a materialized wire stream couples only within its own endpoint (set Msg.Src to stream chunks, or pre-stage the packed bytes in the destination receive)", e, si)
			}
			stream := snd.Msg.Src != nil && snd.Msg.Packed == nil
			if stream && snd.Msg.Kind != TxProcessPut {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d: streamed sends need gather handlers (TxProcessPut)", e, si)
			}
			coupled[snd.Dst][snd.DstRecv] = true
			streamed[snd.Dst][snd.DstRecv] = stream
			coupledBytes[snd.Dst][snd.DstRecv] = snd.Msg.MsgBytes
		}
	}

	pe := sim.AcquireParallel(workers)
	defer sim.ReleaseParallel(pe)

	// Endpoint domains first, then the host domain (so makespan includes
	// the final notification). A domain's lookahead is the tightest bound
	// on its outgoing influence: the notify round trip toward the host,
	// and — when it sends to a peer — its wire latency.
	shards := sc.shards
	for e := range eps {
		la := eps[e].Cfg.PCIe.NotifyLatency()
		if la <= 0 {
			return ExchangeResult{}, fmt.Errorf("nic: endpoint %d PCIe notify latency %v cannot synchronize a run", e, la)
		}
		if sendsAcross(&eps[e], e) {
			if wire := eps[e].Cfg.Fabric.WireLatency; wire <= 0 {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d wire latency %v cannot synchronize an exchange", e, wire)
			} else if wire < la {
				la = wire
			}
		}
		shards[e] = pe.NewShard("nic", la)
	}
	hostShard := pe.NewShard("host", sim.InfiniteLookahead)

	// The results escape, so they are minted fresh — one backing array per
	// kind, carved into per-endpoint rows, whatever the endpoint count.
	res := ExchangeResult{
		Recvs:    make([][]Result, len(eps)),
		Sends:    make([][]SendResult, len(eps)),
		Notified: make([][]sim.Time, len(eps)),
	}
	recvRes, sendRes, notified := make([]Result, nRecv), make([]SendResult, nSend), make([]sim.Time, nRecv)
	for e := range eps {
		nr, ns := len(eps[e].Recvs), len(eps[e].Sends)
		res.Recvs[e], recvRes = recvRes[:nr:nr], recvRes[nr:]
		res.Notified[e], notified = notified[:nr:nr], notified[nr:]
		res.Sends[e], sendRes = sendRes[:ns:ns], sendRes[ns:]
	}

	rxDevs, txDevs := sc.rxDevs, sc.txDevs
	rxSims, txSims := sc.rxSims, sc.txSims

	// Receive side: every endpoint's inbound batch on its own device.
	for e := range eps {
		ep := &eps[e]
		eng := &shards[e].Engine
		var err error
		if len(ep.Recvs) > 0 {
			if rxDevs[e], err = acquireRxDevice(eng, ep.Cfg); err != nil {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d: %w", e, err)
			}
		}
		if len(ep.Sends) > 0 {
			if txDevs[e], err = acquireTxDevice(eng, ep.Cfg); err != nil {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d: %w", e, err)
			}
		}
		host := &sc.hostStore[e]
		host.shard = hostShard
		host.notified = res.Notified[e]
		hostCtx := hostShard.Bind(host)
		notifyLat := ep.Cfg.PCIe.NotifyLatency()

		rxSims[e] = scratchRows(rxSims[e], len(ep.Recvs))
		for mi := range ep.Recvs {
			m := &ep.Recvs[mi]
			var s *rxSim
			if coupled[e][mi] {
				if m.Arrivals != nil {
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: coupled receive cannot carry an explicit arrival schedule", e, mi)
				}
				msgBytes := coupledBytes[e][mi]
				buf := sc.arrivalBuf()
				if *buf, err = ep.Cfg.Fabric.AppendArrivals(*buf, msgBytes); err != nil {
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: %w", e, mi, err)
				}
				arrivals := *buf
				switch {
				case streamed[e][mi]:
					if m.Packed != nil {
						return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: a pre-staged stream cannot be combined with a streamed send", e, mi)
					}
					s, err = rxDevs[e].newStreamedMessage(m.PT, m.Bits, msgBytes, m.Host, arrivals)
				case m.Packed == nil:
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: coupled receive needs either a streamed send or a pre-staged packed stream", e, mi)
				case int64(len(m.Packed)) != msgBytes:
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: send injects %d bytes, receive pre-stages %d", e, mi, msgBytes, len(m.Packed))
				default:
					s, err = rxDevs[e].newMessage(m.PT, m.Bits, m.Packed, m.Host, arrivals)
				}
				if err != nil {
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: %w", e, mi, err)
				}
				s.deferFirstByte = true
			} else {
				arrivals := m.Arrivals
				if arrivals == nil {
					buf := sc.arrivalBuf()
					if *buf, err = ep.Cfg.Fabric.AppendSchedule(*buf, int64(len(m.Packed)), m.Start, m.Order); err != nil {
						return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: %w", e, mi, err)
					}
					arrivals = *buf
				}
				s, err = rxDevs[e].newMessage(m.PT, m.Bits, m.Packed, m.Host, arrivals)
				if err != nil {
					return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: %w", e, mi, err)
				}
				s.postArrivals()
			}
			s.xShard, s.xHost = shards[e], hostShard
			s.xCtx, s.xIdx, s.xNotifyLat = hostCtx, int64(mi), notifyLat
			rxSims[e][mi] = s
		}
	}

	// Send side: every endpoint's outbound batch on its own device, each
	// coupled injection mailed to its destination receive (together with
	// its wire chunk, for streamed sends).
	for e := range eps {
		ep := &eps[e]
		txSims[e] = scratchRows(txSims[e], len(ep.Sends))
		for si := range ep.Sends {
			snd := &ep.Sends[si]
			if snd.Dst >= 0 && ep.Cfg.Fabric.MTU != eps[snd.Dst].Cfg.Fabric.MTU {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d MTU %d differs from endpoint %d MTU %d",
					e, ep.Cfg.Fabric.MTU, snd.Dst, eps[snd.Dst].Cfg.Fabric.MTU)
			}
			s, err := txDevs[e].newMessage(&snd.Msg)
			if err != nil {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d: %w", e, si, err)
			}
			if snd.Dst >= 0 {
				// Field wiring instead of a closure: the pooled sim carries
				// the coupling, so a send costs no per-run allocation.
				s.xDstRx = rxSims[snd.Dst][snd.DstRecv]
				s.xShard, s.xDstShard = shards[e], shards[snd.Dst]
				s.xWire = ep.Cfg.Fabric.WireLatency
				if streamed[snd.Dst][snd.DstRecv] {
					s.streamChunks()
					s.xStream = true
				}
			}
			s.postLaunch(&snd.Msg)
			txSims[e][si] = s
		}
	}

	res.Makespan = pe.Run()
	res.Windows = pe.Windows()
	res.Events = pe.Fired()
	for e := range eps {
		for mi, s := range rxSims[e] {
			r, err := s.finish()
			if err != nil {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d receive %d: %w", e, mi, err)
			}
			res.Recvs[e][mi] = r
		}
		for si, s := range txSims[e] {
			r, err := s.finish()
			if err != nil {
				return ExchangeResult{}, fmt.Errorf("nic: endpoint %d send %d: %w", e, si, err)
			}
			res.Sends[e][si] = r
		}
	}

	// Results extracted: return every per-message simulation and both
	// device halves of every domain to their pools.
	for e := range eps {
		for _, s := range rxSims[e] {
			releaseRxSim(s)
		}
		for _, s := range txSims[e] {
			releaseTxSim(s)
		}
		if rxDevs[e] != nil {
			releaseRxDevice(rxDevs[e])
		}
		if txDevs[e] != nil {
			releaseTxDevice(txDevs[e])
		}
	}
	return res, nil
}
