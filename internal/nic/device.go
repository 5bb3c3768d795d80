package nic

import (
	"errors"
	"fmt"
	"sync"

	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// Result reports one simulated message receive.
type Result struct {
	// MsgBytes is the message (packed stream) size.
	MsgBytes int64
	// FirstByte is when the first bit of the message reached the NIC.
	FirstByte sim.Time
	// Done is when the last byte landed in the receive buffer (for sPIN
	// contexts with a completion handler: when its completion event fired).
	Done sim.Time
	// ProcTime is the paper's message processing time: Done - FirstByte.
	ProcTime sim.Time

	// HandlerRuns counts payload-handler executions; Handler accumulates
	// their runtime phases (Fig. 12); MaxHandlerRuntime is the worst run.
	HandlerRuns       int
	Handler           spin.Breakdown
	MaxHandlerRuntime sim.Time
	// HPUBusy is the total HPU occupancy across all handlers.
	HPUBusy sim.Time

	// DMA aggregates the DMA engine activity.
	DMA DMAStats
	// PktBufPeak is the peak number of packets resident in NIC memory
	// (arrived but not fully processed).
	PktBufPeak int64
	// NICMemBytes is the context state resident in NIC memory.
	NICMemBytes int64

	// MatchedList records which Portals list the message matched on.
	MatchedList portals.List
	// Dropped is set when no list entry matched (message discarded).
	Dropped bool
}

// ThroughputGbps returns the receive throughput over the processing time.
func (r Result) ThroughputGbps() float64 {
	if r.ProcTime <= 0 {
		return 0
	}
	return float64(r.MsgBytes) * 8 / r.ProcTime.Seconds() / 1e9
}

// writeOp is one buffered handler DMA write.
type writeOp struct {
	hostOff int64
	data    []byte
}

// writeBuffer collects the DMA writes of one handler execution. One buffer
// per device is reused across handler runs: the ops are consumed
// synchronously by scheduleWrites before the next run begins.
type writeBuffer struct{ ops []writeOp }

func (w *writeBuffer) Write(hostOff int64, data []byte) {
	w.ops = append(w.ops, writeOp{hostOff: hostOff, data: data})
}

// readOp is one buffered gather-handler DMA read.
type readOp struct {
	hostOff int64
	n       int64
}

// readBuffer collects the DMA reads of one gather-handler execution (the
// sender-side mirror of writeBuffer): Read performs the functional fetch
// from the message's host source immediately and records the request for
// the timing layer. src is rebound per handler run; nil runs timing-only
// (the functional gather was pre-staged).
type readBuffer struct {
	ops []readOp
	src []byte
}

func (r *readBuffer) Read(hostOff int64, dst []byte) {
	if r.src != nil {
		copy(dst, r.src[hostOff:hostOff+int64(len(dst))])
	}
	r.ops = append(r.ops, readOp{hostOff: hostOff, n: int64(len(dst))})
}

// hpuOwner is the per-message side of the HPU dispatch loop: the device
// hands a free physical HPU to a ready vHPU by calling its owner's runNext,
// which executes the head-of-queue packet's handler. Both directions of the
// symmetric device model implement it — rxSim runs scatter handlers, txSim
// runs gather handlers — against the same pool.
type hpuOwner interface {
	runNext(v *vhpu)
}

// vhpu is a scheduling unit: a virtual HPU owning a FIFO of packets. It
// carries its message simulation so a handler-end event needs only the
// vhpu as context; the physical HPUs it competes for belong to the device.
// The FIFO drains from head (a ring-style cursor) so a long-lived vHPU
// reuses its queue storage instead of resliceing it away.
type vhpu struct {
	o        hpuOwner
	self     sim.Ctx
	id       int
	queue    []fabric.Packet
	head     int              // consumed prefix of queue
	inline   [4]fabric.Packet // initial queue storage; spills to the heap
	running  bool
	enqueued bool
}

// pending returns the number of queued packets.
func (v *vhpu) pending() int { return len(v.queue) - v.head }

// popPkt removes and returns the head-of-queue packet, rewinding the
// storage once drained so the capacity is reused by later bursts.
func (v *vhpu) popPkt() fabric.Packet {
	p := v.queue[v.head]
	v.head++
	if v.head == len(v.queue) {
		v.queue = v.queue[:0]
		v.head = 0
	}
	return p
}

// vhpuPool recycles scheduling units (with their queue storage) across
// messages and simulations; a released vhpu is re-bound to its next
// engine by vhpuFor.
var vhpuPool = sync.Pool{New: func() any { return new(vhpu) }}

// releaseVHPUs returns a message's scheduling units to the pool and clears
// the table for reuse.
func releaseVHPUs(vhpus []*vhpu) {
	for i, v := range vhpus {
		if v != nil {
			v.o = nil
			v.queue = v.queue[:0]
			v.head = 0
			v.running = false
			v.enqueued = false
			vhpuPool.Put(v)
		}
		vhpus[i] = nil
	}
}

// Typed event kinds of the receive pipeline. Each handler recovers its
// simulation (or vhpu) from the event context and its packet from the
// scalar arguments — no per-event closures, no per-event allocations. The
// kinds are registered in init (not var initializers) because the handlers
// call methods that schedule the same kinds.
var (
	kindRxArrival         sim.Kind // a = delivery slot into rxSim.arrivals
	kindRxRDMA            sim.Kind // a = delivery slot (non-processing RDMA delivery)
	kindRxHER             sim.Kind // a = delivery slot (handler execution request)
	kindRxPortalsEvent    sim.Kind // a = portals.EventKind to post
	kindRxHandlerEnd      sim.Kind // ctx = *vhpu, a = packet index (trace only)
	kindRxDMAChunk        sim.Kind // a = DMA requests, b = payload bytes
	kindRxCompletionWrite sim.Kind // completion handler finished: final write
)

func init() {
	kindRxArrival = sim.RegisterKind("nic.rxArrival", func(ctx any, a, _ int64) {
		ctx.(*rxSim).onArrival(int(a))
	})
	kindRxRDMA = sim.RegisterKind("nic.rxRDMA", func(ctx any, a, _ int64) {
		s := ctx.(*rxSim)
		s.rdmaDeliver(s.arrivals[a].Packet)
	})
	kindRxHER = sim.RegisterKind("nic.rxHER", func(ctx any, a, _ int64) {
		s := ctx.(*rxSim)
		p := s.arrivals[a].Packet
		s.dev.cfg.Trace.add(TraceEvent{At: s.dev.eng.Now(), Kind: TraceHER, Pkt: p.Index, VHPU: -1})
		s.enqueue(p)
	})
	kindRxPortalsEvent = sim.RegisterKind("nic.rxPortalsEvent", func(ctx any, a, _ int64) {
		s := ctx.(*rxSim)
		s.pt.PostEvent(portals.Event{Kind: portals.EventKind(a), Match: s.bits, Size: s.res.MsgBytes})
	})
	kindRxHandlerEnd = sim.RegisterKind("nic.rxHandlerEnd", func(ctx any, a, _ int64) {
		v := ctx.(*vhpu)
		s := v.o.(*rxSim)
		s.dev.cfg.Trace.add(TraceEvent{At: s.dev.eng.Now(), Kind: TraceHandlerEnd, Pkt: int(a), VHPU: v.id})
		s.handlerDone(v)
	})
	kindRxDMAChunk = sim.RegisterKind("nic.rxDMAChunk", func(ctx any, a, b int64) {
		s := ctx.(*rxSim)
		s.dev.cfg.Trace.add(TraceEvent{At: s.dev.eng.Now(), Kind: TraceDMAIssue, Pkt: -1, VHPU: -1, Reqs: a, Bytes: b})
		end := s.dev.dma.write(&s.dmaStats, a, b) + s.dev.cfg.PCIeWriteLatency
		if end > s.lastWriteDone {
			s.lastWriteDone = end
		}
	})
	kindRxCompletionWrite = sim.RegisterKind("nic.rxCompletionWrite", func(ctx any, _, _ int64) {
		s := ctx.(*rxSim)
		// The final write flushes behind all data writes on the FIFO link.
		done := s.dev.dma.write(&s.dmaStats, 1, 0) + s.dev.cfg.PCIeWriteLatency
		if done < s.lastWriteDone {
			done = s.lastWriteDone
		}
		s.finishCompletion(done)
	})
}

// device is the direction-generic core of one side of a simulated NIC:
// the physical HPU pool with its dispatch queue, the vHPU backing storage,
// the reused handler-argument scratch, and the NIC-memory accounting of
// resident execution contexts. Both device directions — rxDevice parsing
// and scattering inbound messages, txDevice gathering and injecting
// outbound ones — are built on this core, so their messages contend for
// HPUs and NIC memory through identical machinery.
type device struct {
	cfg Config
	eng *sim.Engine

	freeHPUs int
	ready    []*vhpu

	// wb, rb and args are reused across handler executions (the handlers
	// run synchronously and must not retain them): wb collects the scatter
	// writes of a receive handler, rb the gather reads of a send handler.
	wb   writeBuffer
	rb   readBuffer
	args spin.HandlerArgs

	// resCtxs tracks the distinct execution contexts resident in NIC
	// memory, and resCtxBytes their total state volume: a batch of
	// messages may share one committed context (counted once) or bring
	// several, and together they must fit the device's memory.
	resCtxs     []*spin.ExecutionContext
	resCtxBytes int64
}

// initDevice validates the configuration and seeds the HPU pool. It also
// rewinds any state a pooled device carried over from a previous
// simulation, so a recycled device is indistinguishable from a fresh one.
func (d *device) initDevice(eng *sim.Engine, cfg Config) error {
	if cfg.HPUs <= 0 {
		return fmt.Errorf("nic: %d HPUs", cfg.HPUs)
	}
	d.cfg = cfg
	d.eng = eng
	d.freeHPUs = cfg.HPUs
	d.ready = d.ready[:0]
	d.wb.ops = d.wb.ops[:0]
	d.rb.ops = d.rb.ops[:0]
	d.rb.src = nil
	for i := range d.resCtxs {
		d.resCtxs[i] = nil
	}
	d.resCtxs = d.resCtxs[:0]
	d.resCtxBytes = 0
	d.args = spin.HandlerArgs{}
	return nil
}

// addContext accounts ctx as resident in NIC memory (idempotent per
// context) and returns the total resident state volume.
func (d *device) addContext(ctx *spin.ExecutionContext) int64 {
	for _, have := range d.resCtxs {
		if have == ctx {
			return d.resCtxBytes
		}
	}
	d.resCtxs = append(d.resCtxs, ctx)
	d.resCtxBytes += ctx.NICMemBytes
	return d.resCtxBytes
}

// reserveContext is the NIC-memory admission check shared by both device
// directions: the context alone must fit, and so must the batch of
// distinct contexts resident together.
func (d *device) reserveContext(ctx *spin.ExecutionContext) error {
	if ctx.NICMemBytes > d.cfg.NICMemBytes {
		return fmt.Errorf("nic: context needs %d bytes of NIC memory, have %d",
			ctx.NICMemBytes, d.cfg.NICMemBytes)
	}
	if total := d.addContext(ctx); total > d.cfg.NICMemBytes {
		return fmt.Errorf("nic: batched contexts need %d bytes of NIC memory together, have %d",
			total, d.cfg.NICMemBytes)
	}
	return nil
}

// vhpuFor returns the scheduling unit for vid in a message's dense vHPU
// table, drawing a pooled one (re-bound to this engine) on first use.
func (d *device) vhpuFor(o hpuOwner, vhpus *[]*vhpu, vid int) *vhpu {
	for vid >= len(*vhpus) {
		*vhpus = append(*vhpus, nil)
	}
	v := (*vhpus)[vid]
	if v == nil {
		v = vhpuPool.Get().(*vhpu)
		v.o, v.id = o, vid
		if v.queue == nil {
			v.queue = v.inline[:0]
		}
		v.self = d.eng.Bind(v)
		(*vhpus)[vid] = v
	}
	return v
}

// enqueueVHPU appends a packet to v's FIFO and marks it ready.
func (d *device) enqueueVHPU(v *vhpu, p fabric.Packet) {
	v.queue = append(v.queue, p)
	if !v.running && !v.enqueued {
		v.enqueued = true
		d.ready = append(d.ready, v)
	}
}

// dispatch hands free physical HPUs to ready vHPUs, FIFO across every
// message resident on the device.
func (d *device) dispatch() {
	for d.freeHPUs > 0 && len(d.ready) > 0 {
		v := d.ready[0]
		copy(d.ready, d.ready[1:])
		d.ready = d.ready[:len(d.ready)-1]
		v.enqueued = false
		if v.pending() == 0 || v.running {
			continue
		}
		v.running = true
		d.freeHPUs--
		v.o.runNext(v)
	}
}

// handlerFinished releases or reuses v's HPU after a handler execution: a
// vHPU keeps its HPU while it has queued packets, otherwise the HPU goes
// back to the pool and the dispatcher runs.
func (d *device) handlerFinished(v *vhpu) {
	if v.pending() > 0 {
		v.o.runNext(v)
		return
	}
	v.running = false
	d.freeHPUs++
	d.dispatch()
}

// rxDevice is the per-NIC receive side: the shared device core plus the
// inbound parser and the DMA write engine toward host memory. Every
// receive of an endpoint runs against the same device in one residency
// pass, so concurrent messages contend for the inbound parser, the HPUs,
// the DMA channels and the PCIe link — and their execution contexts must
// fit NIC memory together.
type rxDevice struct {
	device

	inbound     sim.Server
	dma         *dmaEngine
	mtuCopyTime sim.Time // NICMemCopyTime(MTU), the per-packet staging cost
}

// rxDevPool recycles whole receive devices — the HPU dispatch state, the
// DMA engine with its channel heap — across runs.
var rxDevPool = sync.Pool{New: func() any { return new(rxDevice) }}

// acquireRxDevice builds the shared receive state on eng from the device
// pool: a recycled device is rewound (initDevice) and its DMA engine
// rebound to eng.
func acquireRxDevice(eng *sim.Engine, cfg Config) (*rxDevice, error) {
	d := rxDevPool.Get().(*rxDevice)
	if err := d.initDevice(eng, cfg); err != nil {
		rxDevPool.Put(d)
		return nil, err
	}
	d.inbound = sim.Server{}
	d.mtuCopyTime = cfg.NICMemCopyTime(cfg.Fabric.MTU)
	if d.dma == nil {
		d.dma = newDMAEngine(eng, cfg.PCIe, cfg.Channels(), cfg.DMAChannelOccupancy, cfg.CollectDMASeries)
	} else {
		d.dma.reset(eng, cfg.PCIe, cfg.Channels(), cfg.DMAChannelOccupancy, cfg.CollectDMASeries)
	}
	return d, nil
}

// releaseRxDevice returns a drained receive device to the pool. The engine
// it was bound to must not run again before the device is re-acquired.
func releaseRxDevice(d *rxDevice) { rxDevPool.Put(d) }

// rxSim is the per-message state of a receive simulation: the match
// result, the packed stream and destination buffer, the arrival schedule
// and the completion bookkeeping. Its vHPUs are message-local scheduling
// units (the policy's sequence numbering is per message) that occupy the
// device's physical HPUs while running.
type rxSim struct {
	dev  *rxDevice
	self sim.Ctx

	pt   *portals.PT
	bits portals.MatchBits
	me   *portals.ME
	ctx  *spin.ExecutionContext

	packed   []byte
	host     []byte
	arrivals []fabric.Arrival

	// chunks, when non-nil, is the copy-in/copy-out mailbox of a streamed
	// message (packed is then nil): slot i holds packet i's payload as a
	// pooled wire chunk, written by the sender-side domain strictly before
	// it posts the packet's arrival event and consumed (then released)
	// by the scatter path.
	chunks []*chunk

	vhpus []*vhpu // dense vid -> scheduling unit (message-local)

	// Host wiring, set by the runner in place of a notify closure so a
	// pooled sim carries no per-run allocation: the completion is mailed
	// from xShard to the host domain xHost after xNotifyLat, waking slot
	// xIdx of xCtx.
	xShard     *sim.Shard
	xHost      *sim.Shard
	xCtx       sim.Ctx
	xIdx       int64
	xNotifyLat sim.Time

	// deferFirstByte marks a coupled receive whose arrival times are filled
	// in by a sender-side simulation as packets cross the fabric: FirstByte
	// is then derived from the header packet's actual arrival instead of
	// the pre-computed schedule.
	deferFirstByte bool

	payloadsLeft      int
	completionArrived bool
	completionDone    bool
	lastWriteDone     sim.Time

	resident    int64
	maxResident int64

	// dmaStats accumulates this message's DMA traffic; the depth time
	// series stays device-level (dmaEngine.stats).
	dmaStats DMAStats

	res Result
	err error
}

// arrivalBufPool recycles arrival-schedule buffers across runs. It pools
// handles, so neither a Get nor a Put allocates once the pool is warm.
var arrivalBufPool = sync.Pool{New: func() any { return new([]fabric.Arrival) }}

// getArrivalBuf returns a pooled handle to an empty arrival buffer. Store
// the appended schedule back through the handle before putArrivalBuf, so
// the pool keeps the grown backing array.
func getArrivalBuf() *[]fabric.Arrival {
	buf := arrivalBufPool.Get().(*[]fabric.Arrival)
	*buf = (*buf)[:0]
	return buf
}

func putArrivalBuf(buf *[]fabric.Arrival) { arrivalBufPool.Put(buf) }

// rxSimPool recycles per-message receive simulations (with their vHPU
// tables and chunk mailboxes) across runs; see releaseRxSim.
var rxSimPool = sync.Pool{New: func() any { return new(rxSim) }}

// releaseRxSim returns a finished message simulation to the pool. The
// caller must have extracted the Result and must not touch s afterwards;
// the engine the simulation ran on must be drained.
func releaseRxSim(s *rxSim) {
	releaseVHPUs(s.vhpus)
	for i, c := range s.chunks {
		// Undelivered chunks (error or drop teardown) go back to the pool.
		putChunk(c)
		s.chunks[i] = nil
	}
	*s = rxSim{vhpus: s.vhpus[:0], chunks: s.chunks[:0]}
	rxSimPool.Put(s)
}

// newMessage adds one message simulation with a materialized packed stream
// to the device.
func (d *rxDevice) newMessage(pt *portals.PT, bits portals.MatchBits, packed, host []byte, arrivals []fabric.Arrival) (*rxSim, error) {
	if len(packed) == 0 {
		return nil, errors.New("nic: empty message")
	}
	s, err := d.addMessage(pt, bits, int64(len(packed)), host, arrivals)
	if err != nil {
		return nil, err
	}
	s.packed = packed
	return s, nil
}

// newStreamedMessage adds one message whose packet payloads are delivered
// as pooled wire chunks through the message's mailbox instead of read from
// a materialized packed stream: the sender-side simulation copies each
// injected packet's chunk in, and the scatter path consumes and releases
// it. This is what lets a cross-domain exchange run functionally without
// pre-staging msgBytes of wire stream per message.
func (d *rxDevice) newStreamedMessage(pt *portals.PT, bits portals.MatchBits, msgBytes int64, host []byte, arrivals []fabric.Arrival) (*rxSim, error) {
	s, err := d.addMessage(pt, bits, msgBytes, host, arrivals)
	if err != nil {
		return nil, err
	}
	for len(s.chunks) < len(arrivals) {
		s.chunks = append(s.chunks, nil)
	}
	return s, nil
}

// addMessage is the shared constructor of both message flavors.
func (d *rxDevice) addMessage(pt *portals.PT, bits portals.MatchBits, msgBytes int64, host []byte, arrivals []fabric.Arrival) (*rxSim, error) {
	if msgBytes <= 0 {
		return nil, errors.New("nic: empty message")
	}
	if len(arrivals) == 0 {
		return nil, errors.New("nic: empty arrival schedule")
	}
	s := rxSimPool.Get().(*rxSim)
	s.dev = d
	s.pt = pt
	s.bits = bits
	s.host = host
	s.arrivals = arrivals
	for len(s.vhpus) < len(arrivals) {
		s.vhpus = append(s.vhpus, nil)
	}
	s.self = d.eng.Bind(s)
	s.res.MsgBytes = msgBytes
	s.res.FirstByte = arrivals[0].At - d.cfg.Fabric.PacketTime(arrivals[0].Packet.Size)
	s.payloadsLeft = len(arrivals)
	return s, nil
}

// postArrivals schedules the whole arrival schedule up front, for a
// receive no send of the run paces.
func (s *rxSim) postArrivals() {
	for i := range s.arrivals {
		s.dev.eng.Post(s.arrivals[i].At, kindRxArrival, s.self, int64(i), 0)
	}
}

// finish assembles the Result after the engine drained.
func (s *rxSim) finish() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	if s.res.Dropped {
		s.res.ProcTime = 0
		return s.res, nil
	}
	s.res.ProcTime = s.res.Done - s.res.FirstByte
	s.res.DMA = s.dmaStats
	s.res.DMA.Samples = s.dev.dma.series()
	s.res.PktBufPeak = s.maxResident
	if s.ctx != nil {
		s.res.NICMemBytes = s.ctx.NICMemBytes
	}
	return s.res, nil
}

func (s *rxSim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// payloadOf returns packet p's payload bytes: a slice of the materialized
// packed stream, or the pooled chunk the sender mailed into the message's
// mailbox. The caller must releaseChunk(p.Index) once the payload has been
// consumed.
func (s *rxSim) payloadOf(p fabric.Packet) []byte {
	if len(s.chunks) > 0 {
		return s.chunks[p.Index].b
	}
	return s.packed[p.StreamOff : p.StreamOff+p.Size]
}

// releaseChunk returns packet i's mailbox chunk (if any) to the pool.
func (s *rxSim) releaseChunk(i int) {
	if len(s.chunks) > 0 && s.chunks[i] != nil {
		putChunk(s.chunks[i])
		s.chunks[i] = nil
	}
}

func (s *rxSim) onArrival(slot int) {
	if s.err != nil {
		s.releaseChunk(s.arrivals[slot].Packet.Index)
		return
	}
	d := s.dev
	a := s.arrivals[slot]
	p := a.Packet

	if p.Header {
		if s.deferFirstByte {
			s.res.FirstByte = a.At - d.cfg.Fabric.PacketTime(p.Size)
		}
		me, list, ok := s.pt.Match(s.bits)
		if !ok {
			s.res.Dropped = true
			// The drop is decided here, at the header's arrival; in a
			// batch the shared engine keeps running other messages, so
			// finish() must not stamp the batch's drain time on this one.
			s.res.Done = a.At
			s.releaseChunk(p.Index)
			s.pt.PostEvent(portals.Event{Kind: portals.EventDropped, Match: s.bits, Size: s.res.MsgBytes})
			return
		}
		s.me = me
		s.ctx = me.Ctx
		s.res.MatchedList = list
		if s.ctx != nil {
			if err := d.reserveContext(s.ctx); err != nil {
				s.fail(err)
				return
			}
		}
	}
	if s.res.Dropped {
		s.releaseChunk(p.Index)
		return // rest of a dropped message is discarded
	}
	if s.me == nil {
		s.releaseChunk(p.Index)
		s.fail(errors.New("nic: non-header packet before header (fabric must deliver header first)"))
		return
	}

	d.cfg.Trace.add(TraceEvent{At: a.At, Kind: TracePktArrival, Pkt: p.Index, VHPU: -1})
	occ := d.cfg.InboundParse
	if p.Header {
		d.cfg.Trace.add(TraceEvent{At: a.At, Kind: TraceMatch, Pkt: p.Index, VHPU: -1})
		occ += d.cfg.MatchTime
	}
	if s.ctx != nil {
		// Stage the payload into NIC memory (cached for full-size packets).
		if p.Size == d.cfg.Fabric.MTU {
			occ += d.mtuCopyTime
		} else {
			occ += d.cfg.NICMemCopyTime(p.Size)
		}
	}
	_, inboundDone := d.inbound.Acquire(a.At, occ)

	if s.ctx == nil {
		// Non-processing RDMA path: one bulk DMA write per packet.
		d.eng.Post(inboundDone, kindRxRDMA, s.self, int64(slot), 0)
		return
	}
	d.eng.Post(inboundDone+d.cfg.HERDispatch, kindRxHER, s.self, int64(slot), 0)
}

// rdmaDeliver lands one packet of a non-processing message.
func (s *rxSim) rdmaDeliver(p fabric.Packet) {
	d := s.dev
	hostOff := s.me.Region.Offset + p.StreamOff
	d.dma.copyToHost(s.host, hostOff, s.payloadOf(p))
	s.releaseChunk(p.Index)
	end := d.dma.write(&s.dmaStats, 1, p.Size) + d.cfg.PCIeWriteLatency
	if end > s.lastWriteDone {
		s.lastWriteDone = end
	}
	s.payloadsLeft--
	if s.payloadsLeft == 0 {
		done := s.lastWriteDone
		d.eng.Post(done, kindRxPortalsEvent, s.self, int64(portals.EventPut), 0)
		s.res.Done = done
		s.xShard.PostRemote(s.xHost, done+s.xNotifyLat, kindClusterNotify, s.xCtx, s.xIdx, 0)
	}
}

// enqueue hands a packet to its vHPU and kicks the device dispatcher.
func (s *rxSim) enqueue(p fabric.Packet) {
	if s.err != nil {
		return
	}
	d := s.dev
	s.resident++
	if s.resident > s.maxResident {
		s.maxResident = s.resident
	}

	vid := s.ctx.Policy.SequenceOf(p.Index)
	if vid < 0 {
		vid = p.Index // default policy: every packet independent
	}
	v := d.vhpuFor(s, &s.vhpus, vid)
	d.enqueueVHPU(v, p)
	if p.Completion {
		s.completionArrived = true
	}
	d.dispatch()
}

// runNext executes the payload handler for the head of v's queue.
func (s *rxSim) runNext(v *vhpu) {
	d := s.dev
	p := v.popPkt()

	d.wb.ops = d.wb.ops[:0]
	d.args = spin.HandlerArgs{
		StreamOff: p.StreamOff,
		Payload:   s.payloadOf(p),
		PktBytes:  p.Size,
		MsgSize:   s.res.MsgBytes,
		PktIndex:  p.Index,
		VHPU:      v.id,
		DMA:       &d.wb,
	}
	res := s.ctx.Payload(&d.args)
	if res.Err != nil {
		s.releaseChunk(p.Index)
		s.fail(fmt.Errorf("nic: payload handler packet %d: %w", p.Index, res.Err))
		return
	}

	s.res.HandlerRuns++
	s.res.Handler.Add(res.Breakdown)
	if res.Runtime > s.res.MaxHandlerRuntime {
		s.res.MaxHandlerRuntime = res.Runtime
	}
	s.res.HPUBusy += res.Runtime

	start := d.eng.Now()
	end := start + res.Runtime
	d.cfg.Trace.add(TraceEvent{At: start, Kind: TraceHandlerStart, Pkt: p.Index, VHPU: v.id, Dur: res.Runtime})
	// scheduleWrites performs the functional copies synchronously, so the
	// packet's wire chunk can go back to the pool right away.
	s.scheduleWrites(start, res.Runtime, d.wb.ops)
	s.releaseChunk(p.Index)
	d.eng.Post(end, kindRxHandlerEnd, v.self, int64(p.Index), 0)
}

// scheduleWrites performs the functional copies immediately and spreads the
// timing of the write requests across the handler runtime in bounded
// chunks. ops is only read during the call; the chunk events carry their
// request and byte counts as scalars.
func (s *rxSim) scheduleWrites(start sim.Time, runtime sim.Time, ops []writeOp) {
	d := s.dev
	n := len(ops)
	if n == 0 {
		return
	}
	for _, op := range ops {
		d.dma.copyToHost(s.host, op.hostOff, op.data)
	}
	chunks := d.cfg.MaxWriteChunks
	if chunks <= 0 {
		chunks = 32
	}
	if n < chunks {
		chunks = n
	}
	per := n / chunks
	extra := n % chunks
	idx := 0
	for c := 0; c < chunks; c++ {
		cnt := per
		if c < extra {
			cnt++
		}
		var bytes int64
		for i := 0; i < cnt; i++ {
			bytes += int64(len(ops[idx].data))
			idx++
		}
		at := start + sim.Time(int64(runtime)*int64(c+1)/int64(chunks))
		d.eng.Post(at, kindRxDMAChunk, s.self, int64(cnt), bytes)
	}
}

// handlerDone releases or reuses the HPU and advances message completion.
func (s *rxSim) handlerDone(v *vhpu) {
	if s.err != nil {
		return
	}
	d := s.dev
	s.resident--
	s.payloadsLeft--
	d.handlerFinished(v)

	if s.payloadsLeft == 0 && s.completionArrived && !s.completionDone {
		s.completionDone = true
		s.runCompletion()
	}
}

// finishCompletion records the completion time and posts the host event.
func (s *rxSim) finishCompletion(at sim.Time) {
	s.dev.cfg.Trace.add(TraceEvent{At: at, Kind: TraceCompletion, Pkt: -1, VHPU: -1})
	s.res.Done = at
	s.dev.eng.Post(at, kindRxPortalsEvent, s.self, int64(portals.EventHandlerCompletion), 0)
	s.xShard.PostRemote(s.xHost, at+s.xNotifyLat, kindClusterNotify, s.xCtx, s.xIdx, 0)
}

// runCompletion executes the completion handler (Sec. 3.2.2): a final
// zero-byte DMA write with events enabled, signalling the host that the
// message is fully unpacked.
func (s *rxSim) runCompletion() {
	d := s.dev
	if s.ctx.Completion == nil {
		s.finishCompletion(s.lastWriteDone)
		return
	}
	d.wb.ops = d.wb.ops[:0]
	d.args = spin.HandlerArgs{MsgSize: s.res.MsgBytes, DMA: &d.wb}
	res := s.ctx.Completion(&d.args)
	if res.Err != nil {
		s.fail(fmt.Errorf("nic: completion handler: %w", res.Err))
		return
	}
	s.res.HPUBusy += res.Runtime
	end := d.eng.Now() + res.Runtime
	d.eng.Post(end, kindRxCompletionWrite, s.self, 0, 0)
}
