package nic

import (
	"math"

	"spinddt/internal/pcie"
	"spinddt/internal/sim"
)

// QueueSample is one point of the DMA-queue-depth time series (Fig. 15).
type QueueSample struct {
	At    sim.Time
	Depth int
}

// DMAStats aggregates the DMA engine activity of one simulation: request
// and byte counts, queue occupancy (Fig. 14) and its time series (Fig. 15).
type DMAStats struct {
	// Writes is the number of DMA write requests issued.
	Writes int64
	// Bytes is the payload written to host memory.
	Bytes int64
	// WireBytes is the PCIe wire volume including TLP overheads.
	WireBytes int64
	// MaxQueueDepth is the peak number of outstanding write requests.
	MaxQueueDepth int
	// Samples is the decimated (time, depth) series. It is only recorded
	// when Config.CollectDMASeries is set (the Fig. 15 study); depth and
	// MaxQueueDepth are always tracked.
	Samples []QueueSample
	// ReadStalls counts DMA reads (iovec refills) issued toward the host.
	ReadStalls int64
}

// dmaEngine models the NIC's DMA write path: a pool of channels each with a
// fixed per-request occupancy, feeding a shared PCIe link. Writes copy
// their payload into the destination host buffer immediately (functional
// layer) while completion times come from the channel and link servers
// (timing layer). The engine carries no host buffer of its own: a batched
// receive shares one DMA engine across messages with distinct destination
// buffers, so the functional store names its buffer per copy.
//
// The engine retires its own write completions instead of posting an
// event per burst: a completion only lowers the queue depth, and the
// depth is read only at an issue and after the run. Each issued burst
// goes into held, a FIFO of outstanding bursts. The PCIe link is a FIFO
// server, so completions come out in issue order, and each burst carries
// the sequence number its completion event would have had. An issue first
// retires every held completion that precedes it in (time, seq) order; the
// engine, to which the dmaEngine is a sim.Holder, retires the rest when a
// window or the run ends and counts them for its clock and its shard's
// horizon. Depth, MaxQueueDepth and the depth series are therefore exactly
// what one event per completion produced. held is a ring that grows only
// when full, so its capacity follows the peak number of outstanding
// bursts, not the number of writes.
type dmaEngine struct {
	eng      *sim.Engine
	channels *sim.MultiServer
	link     sim.Server
	pcie     pcie.Link
	perReq   sim.Time

	depth int
	stats DMAStats

	held     []heldBurst // ring; its length is zero or a power of two
	heldHead int
	heldLen  int

	collectSeries bool
	sampleStride  int // decimation factor for the depth series
	sampleSkip    int
}

// heldBurst is an issued write burst whose completion is not yet retired.
type heldBurst struct {
	at   sim.Time // completion time
	seq  uint64   // the sequence number of its completion event
	reqs int64
}

func newDMAEngine(eng *sim.Engine, p pcie.Config, channels int, perReq sim.Time, series bool) *dmaEngine {
	d := &dmaEngine{
		eng:           eng,
		channels:      sim.NewMultiServer(channels),
		pcie:          pcie.NewLink(p),
		perReq:        perReq,
		collectSeries: series,
		sampleStride:  1,
	}
	eng.Hold(d)
	return d
}

// reset rebinds a pooled DMA engine to a new simulation, reusing the channel
// heap when the pool size is unchanged and the held ring. A depth series
// recorded for a prior caller is disowned (the slice escaped into that
// caller's Result), not truncated.
func (d *dmaEngine) reset(eng *sim.Engine, p pcie.Config, channels int, perReq sim.Time, series bool) {
	d.eng = eng
	if d.channels == nil || d.channels.Servers() != channels {
		d.channels = sim.NewMultiServer(channels)
	} else {
		d.channels.Reset()
	}
	d.link = sim.Server{}
	d.pcie = pcie.NewLink(p)
	d.perReq = perReq
	d.depth = 0
	if d.collectSeries {
		d.stats = DMAStats{}
	} else {
		d.stats = DMAStats{Samples: d.stats.Samples[:0]}
	}
	d.heldHead, d.heldLen = 0, 0
	d.collectSeries = series
	d.sampleStride = 1
	d.sampleSkip = 0
	eng.Hold(d)
}

// write issues reqs DMA write requests at the current simulation time,
// moving total payload bytes. The payload has already been copied to the
// host buffer by the caller; this accounts timing and queue depth. Request
// and byte counters land in st — the issuing message's statistics, so a
// batched receive attributes traffic per message — while queue depth (a
// physical device property) is tracked in the engine's own stats. It
// returns the completion time of the last request. It must be called from
// a firing event. The steady-state path performs no heap allocations: the
// completion goes into the held ring.
func (d *dmaEngine) write(st *DMAStats, reqs int64, totalBytes int64) sim.Time {
	if reqs <= 0 {
		return d.eng.Now()
	}
	for d.heldLen > 0 && d.eng.Precedes(d.held[d.heldHead].at, d.held[d.heldHead].seq) {
		d.retireHead()
	}
	now := d.eng.Now()
	_, chanEnd := d.channels.Acquire(now, sim.Time(reqs)*d.perReq)
	wire := d.pcie.BurstTime(reqs, totalBytes)
	_, end := d.link.Acquire(chanEnd, wire)

	st.Writes += reqs
	st.Bytes += totalBytes
	st.WireBytes += totalBytes + reqs*d.pcie.TLPHeaderBytes

	d.adjustDepth(int(reqs), now)
	if d.depth > st.MaxQueueDepth {
		st.MaxQueueDepth = d.depth
	}
	d.hold(heldBurst{at: end, seq: d.eng.ReserveSeq(), reqs: reqs})
	return end
}

// hold appends b to the held ring, doubling the ring when it is full.
func (d *dmaEngine) hold(b heldBurst) {
	if d.heldLen == len(d.held) {
		ring := make([]heldBurst, max(16, 2*len(d.held)))
		n := copy(ring, d.held[d.heldHead:])
		copy(ring[n:], d.held[:d.heldHead])
		d.held, d.heldHead = ring, 0
	}
	d.held[(d.heldHead+d.heldLen)&(len(d.held)-1)] = b
	d.heldLen++
}

// retireHead retires the oldest held burst: its requests leave the queue
// at its completion time.
func (d *dmaEngine) retireHead() {
	b := d.held[d.heldHead]
	d.heldHead = (d.heldHead + 1) & (len(d.held) - 1)
	d.heldLen--
	d.adjustDepth(-int(b.reqs), b.at)
}

// NextHeld implements sim.Holder: the earliest unretired completion.
func (d *dmaEngine) NextHeld() (sim.Time, bool) {
	if d.heldLen == 0 {
		return 0, false
	}
	return d.held[d.heldHead].at, true
}

// RetireBefore implements sim.Holder: it retires, in issue order, the
// completions before limit.
func (d *dmaEngine) RetireBefore(limit sim.Time) (last sim.Time, ok bool) {
	for d.heldLen > 0 && d.held[d.heldHead].at < limit {
		last, ok = d.held[d.heldHead].at, true
		d.retireHead()
	}
	return last, ok
}

// series returns the depth series (Fig. 15), retiring every completion
// still held first.
func (d *dmaEngine) series() []QueueSample {
	d.RetireBefore(math.MaxInt64)
	return d.stats.Samples
}

// read models a DMA read from host memory (the iovec-refill path): the
// caller stalls for the PCIe round trip.
func (d *dmaEngine) readLatency(st *DMAStats) sim.Time {
	st.ReadStalls++
	return d.pcie.ReadLatency
}

// adjustDepth tracks the physical queue depth, sampling the series at time
// at (per-message peaks are recorded at issue time in write; d.stats only
// carries the depth series).
func (d *dmaEngine) adjustDepth(delta int, at sim.Time) {
	d.depth += delta
	if !d.collectSeries {
		return
	}
	d.sampleSkip++
	if d.sampleSkip >= d.sampleStride {
		d.sampleSkip = 0
		d.stats.Samples = append(d.stats.Samples, QueueSample{At: at, Depth: d.depth})
		if len(d.stats.Samples) >= 16384 {
			// Decimate in place: keep every other sample, double the stride.
			kept := d.stats.Samples[:0]
			for i := 0; i < len(d.stats.Samples); i += 2 {
				kept = append(kept, d.stats.Samples[i])
			}
			d.stats.Samples = kept
			d.sampleStride *= 2
		}
	}
}

// copyToHost performs the functional store of a write's payload into the
// owning message's host buffer.
func (d *dmaEngine) copyToHost(host []byte, hostOff int64, data []byte) {
	copy(host[hostOff:hostOff+int64(len(data))], data)
}
