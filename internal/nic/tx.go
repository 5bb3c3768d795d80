package nic

import (
	"errors"
	"fmt"
	"sync"

	"spinddt/internal/fabric"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// This file is the sender half of the symmetric device model: a txDevice
// mirrors the rxDevice — the same HPU pool, the same NIC-memory accounting
// of resident execution contexts — with the data path reversed. Gather
// handlers resolve a packet's contiguous source regions in host memory and
// fetch them over the PCIe read path; packets then leave, in stream order,
// through the shared injection link. Every send of an endpoint runs against
// ONE device, so concurrent sends contend for the HPUs, the host read path,
// the wire and NIC memory — exactly the way a receive batch contends on the
// rxDevice. A send batch is the topology of one endpoint whose sends are
// uncoupled (ExchangeSend.Dst < 0), run by RunExchange like every other.
//
// The three message kinds are the paper's Fig. 4 tiles. For a single
// uncontended message each kind reproduces, tick for tick, the server
// algebra of the original closed-form sender models: the device
// simulation generalizes them, it does not re-tune them.

// TxKind selects the sender-side pipeline of one outbound message.
type TxKind int

const (
	// TxPacked is the classic pack+send (Fig. 4, left): the sender CPU
	// packs the datatype into a contiguous buffer, then the NIC streams
	// it, pipelining PCIe reads with line-rate injection.
	TxPacked TxKind = iota
	// TxStreaming is streaming puts (Fig. 4, middle): the sender CPU
	// walks the datatype announcing regions while the NIC fetches and
	// injects already-announced data.
	TxStreaming
	// TxProcessPut is outbound sPIN (Fig. 4, right): gather handlers on
	// the sender HPUs locate each packet's source regions and stream them
	// out; the CPU only issues the control-plane operation.
	TxProcessPut
)

// TxMessage describes one message of a batched send: the pipeline kind,
// when its control-plane operation is issued, and the kind's parameters.
type TxMessage struct {
	Kind TxKind
	// MsgBytes is the packed message size.
	MsgBytes int64
	// Start is when the send is issued (the pack begins / the first region
	// is announced / the PtlProcessPut command is posted).
	Start sim.Time

	// PackTime is the CPU pack duration (TxPacked).
	PackTime sim.Time

	// ReadyAt holds, per packet and relative to Start, the CPU time at
	// which the packet's last region has been announced (TxStreaming;
	// StreamingSchedule computes it from a region walk). CPUTime is the
	// total CPU busy time and Regions the announced region count.
	ReadyAt []sim.Time
	CPUTime sim.Time
	Regions int64

	// Ctx is the gather execution context (TxProcessPut): its Payload
	// handler resolves each packet's source regions, issues DMA reads
	// through HandlerArgs.DMARead and returns the modeled HPU runtime. The
	// context's state is resident in NIC memory for the whole batch.
	Ctx *spin.ExecutionContext
	// Src is the host source buffer the gather reads from; Packed is the
	// outgoing wire stream the gather fills. Both may be nil to run the
	// gather timing-only (the functional pack was pre-staged). See
	// ExchangeSend for how each combination couples to a receive.
	Src    []byte
	Packed []byte
}

// txDevice is the per-NIC send side: the shared device core plus the host
// read path (DMA reads fetching packet source data over PCIe) and the
// injection link every outbound packet serializes through.
type txDevice struct {
	device

	hostRead sim.Server // PCIe read path toward host memory
	wire     sim.Server // injection link
}

// txDevPool recycles whole send devices across runs.
var txDevPool = sync.Pool{New: func() any { return new(txDevice) }}

// acquireTxDevice builds the shared outbound device state on eng from the
// device pool.
func acquireTxDevice(eng *sim.Engine, cfg Config) (*txDevice, error) {
	d := txDevPool.Get().(*txDevice)
	if err := d.initDevice(eng, cfg); err != nil {
		txDevPool.Put(d)
		return nil, err
	}
	d.hostRead = sim.Server{}
	d.wire = sim.Server{}
	return d, nil
}

// releaseTxDevice returns a drained send device to the pool.
func releaseTxDevice(d *txDevice) { txDevPool.Put(d) }

// txSim is the per-message state of a send simulation: the packet pipeline
// bookkeeping (which packets are ready, which have entered the in-order
// fetch+inject stage) and the per-message result. Its vHPUs occupy the
// device's physical HPUs while gather handlers run (TxProcessPut only).
type txSim struct {
	dev  *txDevice
	self sim.Ctx

	kind   TxKind
	ctx    *spin.ExecutionContext
	src    []byte
	packed []byte
	npkt   int

	// ready / readyOK record when each packet became eligible for its host
	// fetch (CPU announce or gather-handler completion); next is the first
	// packet not yet advanced through the in-order fetch+inject stage.
	ready   []sim.Time
	readyOK []bool
	next    int
	left    int // packets not yet injected

	// chunks, when non-empty, streams the gather's wire bytes: each
	// packet's payload is produced into a pooled chunk by its gather
	// handler and handed off at injection time (takeChunk) instead of
	// being materialized in a packed stream.
	chunks []*chunk

	vhpus []*vhpu

	// Coupling, set by RunExchange in place of a per-send closure so a
	// pooled sim carries no per-run allocation: when xDstRx is non-nil
	// every injected packet is mailed from xShard to the destination
	// domain xDstShard one xWire later; streamed sends (xStream) hand the
	// packet's pooled chunk into the destination mailbox strictly before
	// the arrival post.
	xDstRx    *rxSim
	xShard    *sim.Shard
	xDstShard *sim.Shard
	xWire     sim.Time
	xStream   bool

	res SendResult
	err error
}

// Typed event kinds of the send pipeline.
var (
	kindTxReady      sim.Kind // a = packet index: CPU made the packet fetchable
	kindTxHER        sim.Kind // a = packet index: gather handler schedulable
	kindTxHandlerEnd sim.Kind // ctx = *vhpu, a = packet index
	kindTxInjected   sim.Kind // a = packet index: last bit left the NIC
)

func init() {
	kindTxReady = sim.RegisterKind("nic.txReady", func(ctx any, a, _ int64) {
		s := ctx.(*txSim)
		if s.err != nil {
			return
		}
		s.packetReady(int(a))
	})
	kindTxHER = sim.RegisterKind("nic.txHER", func(ctx any, a, _ int64) {
		ctx.(*txSim).enqueue(int(a))
	})
	kindTxHandlerEnd = sim.RegisterKind("nic.txHandlerEnd", func(ctx any, a, _ int64) {
		v := ctx.(*vhpu)
		v.o.(*txSim).gatherDone(v, int(a))
	})
	kindTxInjected = sim.RegisterKind("nic.txInjected", func(ctx any, a, _ int64) {
		ctx.(*txSim).injected(int(a))
	})
}

// txSimPool recycles per-message send simulations (with their pipeline
// bookkeeping and vHPU tables) across runs; see releaseTxSim.
var txSimPool = sync.Pool{New: func() any { return new(txSim) }}

// releaseTxSim returns a finished send simulation to the pool. The caller
// must have extracted the SendResult (PacketInjections is allocated per
// message, so the extracted result stays valid) and must not touch s
// afterwards; the engine the simulation ran on must be drained.
func releaseTxSim(s *txSim) {
	releaseVHPUs(s.vhpus)
	for i, c := range s.chunks {
		putChunk(c) // un-injected chunks (error teardown) go back to the pool
		s.chunks[i] = nil
	}
	*s = txSim{
		ready:   s.ready[:0],
		readyOK: s.readyOK[:0],
		chunks:  s.chunks[:0],
		vhpus:   s.vhpus[:0],
	}
	txSimPool.Put(s)
}

// streamChunks switches a gather send to streamed wire chunks: each
// packet's payload is produced into a pooled chunk during its gather
// handler and handed off at injection time through takeChunk. Requires a
// TxProcessPut message with a functional source and no materialized
// stream (Src != nil, Packed == nil).
func (s *txSim) streamChunks() {
	for len(s.chunks) < s.npkt {
		s.chunks = append(s.chunks, nil)
	}
}

// takeChunk removes and returns packet pkt's gathered wire chunk; the
// caller owns it (the exchange path mails it into the destination
// message's mailbox).
func (s *txSim) takeChunk(pkt int) *chunk {
	c := s.chunks[pkt]
	s.chunks[pkt] = nil
	return c
}

// newMessage validates m and adds one message simulation to the device.
func (d *txDevice) newMessage(m *TxMessage) (*txSim, error) {
	if m.MsgBytes <= 0 {
		return nil, errors.New("nic: empty message")
	}
	npkt := d.cfg.Fabric.NumPackets(m.MsgBytes)
	s := txSimPool.Get().(*txSim)
	s.dev = d
	s.kind = m.Kind
	s.ctx = m.Ctx
	s.src = m.Src
	s.packed = m.Packed
	s.npkt = npkt
	s.res.MsgBytes = m.MsgBytes
	s.left = npkt
	for len(s.ready) < npkt {
		s.ready = append(s.ready, 0)
	}
	for len(s.readyOK) < npkt {
		s.readyOK = append(s.readyOK, false)
	}
	s.res.PacketInjections = make([]sim.Time, npkt)

	switch m.Kind {
	case TxPacked:
		s.res.CPUBusy = m.PackTime
		s.res.Regions = 1
	case TxStreaming:
		if len(m.ReadyAt) != npkt {
			return nil, fmt.Errorf("nic: streaming schedule has %d entries for %d packets", len(m.ReadyAt), npkt)
		}
		s.res.CPUBusy = m.CPUTime
		s.res.Regions = m.Regions
	case TxProcessPut:
		if m.Ctx == nil || m.Ctx.Payload == nil {
			return nil, errors.New("nic: process put needs a gather execution context")
		}
		if m.Packed != nil && int64(len(m.Packed)) != m.MsgBytes {
			return nil, fmt.Errorf("nic: packed stream is %d bytes, message %d", len(m.Packed), m.MsgBytes)
		}
		if err := d.reserveContext(m.Ctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("nic: unknown send kind %d", m.Kind)
	}
	s.self = d.eng.Bind(s)
	return s, nil
}

// postLaunch pre-posts the message's control-plane events: pack completion
// (every packet fetchable at Start+PackTime), the streaming announce
// schedule, or one handler execution request per packet at the command's
// arrival at the outbound engine.
func (s *txSim) postLaunch(m *TxMessage) {
	d := s.dev
	switch s.kind {
	case TxPacked:
		at := m.Start + m.PackTime
		for i := 0; i < s.npkt; i++ {
			d.eng.Post(at, kindTxReady, s.self, int64(i), 0)
		}
	case TxStreaming:
		for i := 0; i < s.npkt; i++ {
			d.eng.Post(m.Start+m.ReadyAt[i], kindTxReady, s.self, int64(i), 0)
		}
	case TxProcessPut:
		at := m.Start + d.cfg.HERDispatch
		for i := 0; i < s.npkt; i++ {
			d.eng.Post(at, kindTxHER, s.self, int64(i), 0)
		}
	}
}

// pktSize returns packet i's payload size.
func (s *txSim) pktSize(i int) int64 {
	size := s.dev.cfg.Fabric.MTU
	if off := int64(i) * size; off+size > s.res.MsgBytes {
		size = s.res.MsgBytes - off
	}
	return size
}

func (s *txSim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// enqueue hands packet pkt to its vHPU and kicks the device dispatcher
// (TxProcessPut only). Outbound packets are synthesized on the fly: their
// fields are pure functions of the packet index.
func (s *txSim) enqueue(pkt int) {
	if s.err != nil {
		return
	}
	d := s.dev
	vid := s.ctx.Policy.SequenceOf(pkt)
	if vid < 0 {
		vid = pkt // default policy: every packet independent
	}
	v := d.vhpuFor(s, &s.vhpus, vid)
	d.enqueueVHPU(v, fabric.Packet{
		Index:      pkt,
		StreamOff:  int64(pkt) * d.cfg.Fabric.MTU,
		Size:       s.pktSize(pkt),
		Header:     pkt == 0,
		Completion: pkt == s.npkt-1,
	})
	d.dispatch()
}

// runNext executes the gather handler for the head of v's queue
// (hpuOwner).
func (s *txSim) runNext(v *vhpu) {
	d := s.dev
	p := v.popPkt()

	d.rb.ops = d.rb.ops[:0]
	d.rb.src = s.src
	var payload []byte
	if s.packed != nil {
		payload = s.packed[p.StreamOff : p.StreamOff+p.Size]
	} else if len(s.chunks) > 0 {
		// Streamed gather: produce this packet's wire bytes into a pooled
		// chunk; it is handed off downstream at injection time.
		c := getChunk(p.Size)
		s.chunks[p.Index] = c
		payload = c.b
	}
	d.args = spin.HandlerArgs{
		StreamOff: p.StreamOff,
		Payload:   payload,
		PktBytes:  p.Size,
		MsgSize:   s.res.MsgBytes,
		PktIndex:  p.Index,
		VHPU:      v.id,
		DMARead:   &d.rb,
	}
	res := s.ctx.Payload(&d.args)
	d.rb.src = nil
	if res.Err != nil {
		s.fail(fmt.Errorf("nic: gather handler packet %d: %w", p.Index, res.Err))
		return
	}
	s.res.HandlerRuns++
	s.res.HPUBusy += res.Runtime
	s.res.Regions += int64(len(d.rb.ops))

	end := d.eng.Now() + res.Runtime
	d.eng.Post(end, kindTxHandlerEnd, v.self, int64(p.Index), 0)
}

// gatherDone releases or reuses the HPU and feeds the packet into the
// in-order fetch+inject stage.
func (s *txSim) gatherDone(v *vhpu, pkt int) {
	if s.err != nil {
		return
	}
	s.dev.handlerFinished(v)
	s.packetReady(pkt)
}

// packetReady marks pkt fetchable at the current time and advances the
// pipeline: packets enter the host read path and the injection link
// strictly in stream order, each fetch starting a PCIe read round trip
// after the packet became ready, each injection serializing behind the
// previous one on the shared wire.
func (s *txSim) packetReady(pkt int) {
	d := s.dev
	s.ready[pkt] = d.eng.Now()
	s.readyOK[pkt] = true
	for s.next < s.npkt && s.readyOK[s.next] {
		i := s.next
		s.next++
		size := s.pktSize(i)
		at := s.fetchBase(i)
		_, fetched := d.hostRead.Acquire(at, d.cfg.PCIe.ByteTime(size))
		_, injected := d.wire.Acquire(fetched, d.cfg.Fabric.PacketTime(size))
		s.res.PacketInjections[i] = injected
		d.eng.Post(injected, kindTxInjected, s.self, int64(i), 0)
	}
}

// fetchBase returns the earliest time packet i's host fetch may begin. For
// the CPU-side kinds the read round trip overlaps the staging of the whole
// message, so it is paid once from the moment the data became fetchable;
// for gather handlers it follows each handler's completion.
func (s *txSim) fetchBase(i int) sim.Time {
	switch s.kind {
	case TxPacked:
		return s.ready[0] + s.dev.cfg.PCIe.ReadLatency
	default:
		return s.ready[i] + s.dev.cfg.PCIe.ReadLatency
	}
}

// injected records packet pkt's injection completion.
func (s *txSim) injected(pkt int) {
	if s.err != nil {
		return
	}
	now := s.dev.eng.Now()
	if s.xDstRx != nil {
		at := now + s.xWire
		if s.xStream {
			// Mailbox copy-out strictly before the arrival post: the
			// window barrier orders this write against the destination
			// domain's scatter of the chunk.
			s.xDstRx.chunks[pkt] = s.takeChunk(pkt)
		}
		s.xShard.PostRemote(s.xDstShard, at, kindRxArrivalAt, s.xDstRx.self, int64(pkt), int64(at))
	}
	s.left--
	if s.left == 0 {
		s.res.Injected = now
	}
}

// finish assembles the SendResult after the engine drained.
func (s *txSim) finish() (SendResult, error) {
	if s.err != nil {
		return SendResult{}, s.err
	}
	return s.res, nil
}

// StreamingSchedule computes the per-packet CPU announce times of a
// streaming-puts send from its region walk: the CPU pays findPerRegion to
// locate and announce each contiguous region; a packet becomes fetchable
// when the region carrying its last byte has been announced. It returns
// the per-packet ready times (relative to the send start), the total CPU
// busy time and the message size.
func StreamingSchedule(cfg Config, regions []IovecRegion, findPerRegion sim.Time) ([]sim.Time, sim.Time, int64, error) {
	if len(regions) == 0 {
		return nil, 0, 0, errors.New("nic: no regions")
	}
	var msgBytes int64
	for _, r := range regions {
		if r.Size <= 0 {
			return nil, 0, 0, errors.New("nic: empty region")
		}
		msgBytes += r.Size
	}
	ready := make([]sim.Time, cfg.Fabric.NumPackets(msgBytes))
	var cpu sim.Time
	var pktBytes int64
	idx := 0
	for _, r := range regions {
		cpu += findPerRegion
		pktBytes += r.Size
		for pktBytes >= cfg.Fabric.MTU {
			pktBytes -= cfg.Fabric.MTU
			ready[idx] = cpu
			idx++
		}
	}
	if pktBytes > 0 {
		ready[idx] = cpu
	}
	return ready, cpu, msgBytes, nil
}
