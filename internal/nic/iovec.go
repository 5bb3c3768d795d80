package nic

import (
	"errors"
	"fmt"

	"spinddt/internal/fabric"
	"spinddt/internal/plan"
	"spinddt/internal/sim"
)

// IovecRegion is one scatter entry: Size bytes of the packed stream land at
// Offset in the receive buffer. It is the committed layout's region type,
// so a type's Flatten is its scatter list.
type IovecRegion = plan.Region

// Typed event kinds of the iovec engine.
var (
	// a = delivery slot into iovecSim.arrivals.
	kindIovecArrival = sim.RegisterKind("nic.iovecArrival", func(ctx any, a, _ int64) {
		ctx.(*iovecSim).onArrival(int(a))
	})
	// a = DMA requests, b = payload bytes of one packet's scatter burst.
	kindIovecIssue = sim.RegisterKind("nic.iovecIssue", func(ctx any, a, b int64) {
		s := ctx.(*iovecSim)
		end := s.dma.write(&s.stats, a, b) + s.cfg.PCIeWriteLatency
		if end > s.lastWrite {
			s.lastWrite = end
		}
	})
)

// iovecSim is the state of one iovec receive: the NIC-resident entry
// window, the scatter cursor and the serial processing engine.
type iovecSim struct {
	cfg      Config
	eng      *sim.Engine
	self     sim.Ctx
	dma      *dmaEngine
	engine   sim.Server // the iovec processing engine is serial
	regions  []IovecRegion
	packed   []byte
	host     []byte
	arrivals []fabric.Arrival
	stats    DMAStats

	regionIdx   int
	regionDone  int64 // bytes of regions[regionIdx] already written
	entriesLeft int
	lastWrite   sim.Time
}

// onArrival scatters one packet through the region list, charging the
// per-region engine cost and an entry-refill PCIe read whenever the
// NIC-resident window is exhausted.
func (s *iovecSim) onArrival(slot int) {
	p := s.arrivals[slot].Packet
	occ := s.cfg.InboundParse
	var reqs, bytes int64
	streamPos := p.StreamOff
	remaining := p.Size
	for remaining > 0 {
		if s.entriesLeft == 0 {
			occ += s.dma.readLatency(&s.stats) // fetch the next batch of entries
			s.entriesLeft = s.cfg.IovecEntries
		}
		r := s.regions[s.regionIdx]
		frag := r.Size - s.regionDone
		if frag > remaining {
			frag = remaining
		}
		s.dma.copyToHost(s.host, r.Offset+s.regionDone, s.packed[streamPos:streamPos+frag])
		reqs++
		bytes += frag
		occ += s.cfg.IovecPerRegion
		s.regionDone += frag
		streamPos += frag
		remaining -= frag
		if s.regionDone == r.Size {
			s.regionIdx++
			s.regionDone = 0
			s.entriesLeft--
		}
	}
	_, engDone := s.engine.Acquire(s.eng.Now(), occ)
	s.eng.Post(engDone, kindIovecIssue, s.self, reqs, bytes)
}

// ReceiveIovec simulates the paper's Portals 4 baseline (Sec. 5.3): the NIC
// scatters the incoming stream through an input/output vector, holding
// cfg.IovecEntries entries on chip and fetching the next batch from host
// memory with a cfg.PCIe.ReadLatency read every time they run out. The
// first batch is preloaded when the receive is posted. Packets must arrive
// in order — the model (like the paper's) assumes an in-order network.
//
// regions must cover the packed stream exactly, in stream order.
func ReceiveIovec(cfg Config, regions []IovecRegion, packed, host []byte) (Result, error) {
	if len(packed) == 0 {
		return Result{}, errors.New("nic: empty message")
	}
	var covered int64
	for _, r := range regions {
		if r.Size <= 0 {
			return Result{}, fmt.Errorf("nic: iovec region size %d", r.Size)
		}
		covered += r.Size
	}
	if covered != int64(len(packed)) {
		return Result{}, fmt.Errorf("nic: iovec regions cover %d bytes, message is %d", covered, len(packed))
	}
	if cfg.IovecEntries <= 0 {
		return Result{}, fmt.Errorf("nic: iovec entries %d", cfg.IovecEntries)
	}

	buf := getArrivalBuf()
	defer putArrivalBuf(buf)
	var err error
	if *buf, err = cfg.Fabric.AppendSchedule(*buf, int64(len(packed)), 0, nil); err != nil {
		return Result{}, err
	}
	arrivals := *buf

	eng := sim.Acquire()
	defer sim.Release(eng)
	s := &iovecSim{
		cfg:         cfg,
		eng:         eng,
		dma:         newDMAEngine(eng, cfg.PCIe, cfg.Channels(), cfg.DMAChannelOccupancy, cfg.CollectDMASeries),
		regions:     regions,
		packed:      packed,
		host:        host,
		arrivals:    arrivals,
		entriesLeft: cfg.IovecEntries,
	}
	s.self = eng.Bind(s)

	res := Result{MsgBytes: int64(len(packed))}
	res.FirstByte = arrivals[0].At - cfg.Fabric.PacketTime(arrivals[0].Packet.Size)

	for i := range arrivals {
		eng.Post(arrivals[i].At, kindIovecArrival, s.self, int64(i), 0)
	}
	eng.Run()

	res.Done = s.lastWrite
	res.ProcTime = res.Done - res.FirstByte
	res.DMA = s.stats
	res.DMA.Samples = s.dma.series()
	// The iovec list lives in host memory; only the cached entries occupy
	// NIC memory.
	res.NICMemBytes = int64(cfg.IovecEntries) * 16
	return res, nil
}
