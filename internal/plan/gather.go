package plan

import (
	"math/bits"
	"sort"
)

// Reader is the gather direction's host read path. spin.DMAReader
// satisfies it, so the send handlers pass their DMA engine straight through.
type Reader interface {
	// Read fetches len(dst) bytes at hostOff from the source buffer.
	Read(hostOff int64, dst []byte)
}

// Writer is the scatter direction's host write path. spin.DMAWriter
// satisfies it, so the receive handlers pass their DMA engine straight
// through.
type Writer interface {
	// Write stores data at hostOff in the destination buffer.
	Write(hostOff int64, data []byte)
}

// GatherKind identifies a gather plan's resolver family.
type GatherKind uint8

const (
	// GatherContig resolves the whole message as one run.
	GatherContig GatherKind = iota
	// GatherVector resolves strided uniform blocks with O(1) arithmetic.
	GatherVector
	// GatherList resolves an offset list with a binary search per packet.
	GatherList
)

func (k GatherKind) String() string {
	switch k {
	case GatherContig:
		return "contiguous"
	case GatherVector:
		return "vector"
	case GatherList:
		return "list"
	default:
		return "unknown"
	}
}

// Gather is the resolver of a committed layout: it maps a packet's stream
// offset to the packet's contiguous host regions, in both directions —
// Resolve gathers an outgoing packet from them, Scatter stores an arrived
// packet into them. It is the state a PtlProcessPut references on the
// sender NIC and the specialized handler's state on the receiver NIC —
// immutable after construction, shared by every message of the layout.
type Gather struct {
	kind GatherKind

	// Contig/vector arithmetic: perElem blocks of blockSize bytes, stride
	// apart within an element, elements extent apart.
	blockSize int64
	stride    int64
	perElem   int64
	extent    int64

	// List state: the message's regions in stream order plus the stream
	// position of each.
	regions     []Region
	streamStart []int64
	searchSteps int
}

// NewContigGather returns the single-run resolver of a contiguous message.
func NewContigGather(msgSize int64) *Gather {
	return &Gather{kind: GatherContig, blockSize: msgSize, stride: 0, perElem: 1, extent: msgSize}
}

// NewVectorGather returns the O(1) arithmetic resolver of a strided
// uniform-block layout: perElem blocks of blockSize bytes, stride apart,
// elements extent apart.
func NewVectorGather(blockSize, stride, perElem, extent int64) *Gather {
	return &Gather{kind: GatherVector, blockSize: blockSize, stride: stride, perElem: perElem, extent: extent}
}

// NewListGather returns the offset-list resolver. regions lists the merged
// regions of the full message in stream order; the stream positions are
// derived here. The slice is retained.
func NewListGather(regions []Region) *Gather {
	streamStart := make([]int64, len(regions))
	var pos int64
	for i, r := range regions {
		streamStart[i] = pos
		pos += r.Size
	}
	return &Gather{
		kind:        GatherList,
		regions:     regions,
		streamStart: streamStart,
		searchSteps: bits.Len(uint(len(regions))),
	}
}

// Kind returns the resolver family.
func (g *Gather) Kind() GatherKind { return g.kind }

// SearchSteps returns the binary-search step count a packet pays to locate
// its first region: zero for the arithmetic resolvers.
func (g *Gather) SearchSteps() int { return g.searchSteps }

// Resolve fills one packet's payload slice by fetching its contiguous
// source regions through r, returning the number of regions touched. A nil
// payload resolves region addresses without issuing reads (the simulator's
// timing-only mode).
func (g *Gather) Resolve(streamOff, pktBytes int64, payload []byte, r Reader) int64 {
	return g.walk(streamOff, pktBytes, payload, r, nil)
}

// Scatter stores one arrived packet's payload into its contiguous
// destination regions through w, returning the number of regions touched.
func (g *Gather) Scatter(streamOff int64, payload []byte, w Writer) int64 {
	return g.walk(streamOff, int64(len(payload)), payload, nil, w)
}

// walk visits the regions of stream bytes [streamOff, streamOff+n): one
// arithmetic or list step per region, then, given a payload, a read of the
// region's slice through r or, when r is nil, a write through w.
func (g *Gather) walk(streamOff, n int64, payload []byte, r Reader, w Writer) int64 {
	list := g.kind == GatherList
	i := 0
	if list {
		i = sort.Search(len(g.streamStart), func(k int) bool {
			return g.streamStart[k] > streamOff
		}) - 1
	}
	var blocks int64
	for done := int64(0); done < n; blocks++ {
		pos := streamOff + done
		var hostOff, run int64
		if list {
			within := pos - g.streamStart[i]
			hostOff, run = g.regions[i].Offset+within, g.regions[i].Size-within
			i++
		} else {
			b := pos / g.blockSize
			within := pos % g.blockSize
			hostOff = (b/g.perElem)*g.extent + (b%g.perElem)*g.stride + within
			run = g.blockSize - within
		}
		run = min(run, n-done)
		switch {
		case payload == nil:
		case r != nil:
			r.Read(hostOff, payload[done:done+run])
		default:
			w.Write(hostOff, payload[done:done+run])
		}
		done += run
	}
	return blocks
}
