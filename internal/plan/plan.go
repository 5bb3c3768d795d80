package plan

// Region is one contiguous byte run of a layout: Size bytes at byte Offset
// relative to the element origin. internal/ddt aliases its Block and
// internal/nic its IovecRegion to this type, so a committed layout's
// regions reach every consumer without copying.
type Region struct {
	Offset int64
	Size   int64
}

// Program is the lowering input: the merged regions of one element.
type Program struct {
	// Tiles holds the merged contiguous regions of ONE element in typemap
	// order, split into bounded tiles; a flat program is a single tile.
	Tiles [][]Region
	// Fuse records that the last region of element i and the first region
	// of element i+1 form one contiguous run when elements are laid out
	// Extent bytes apart.
	Fuse bool
	// Size is the packed bytes per element; Extent the element spacing.
	Size, Extent int64
}

// Kind identifies a lowered plan's kernel family.
type Kind uint8

const (
	// Contig executes the whole message as a single memmove.
	Contig Kind = iota
	// Stride executes uniform blocks at arithmetic offsets with unrolled
	// wide moves.
	Stride
	// Offsets executes the general region list (flat or tiled).
	Offsets
)

func (k Kind) String() string {
	switch k {
	case Contig:
		return "contig"
	case Stride:
		return "stride"
	case Offsets:
		return "offsets"
	default:
		return "unknown"
	}
}

// Plan is a lowered execution plan: the committed layout's region program
// (the element's tiles plus the fusion bit, replayed by ForEach) and the
// kernel parameters selected once at commit time. Plans are immutable and
// safe for concurrent use.
type Plan struct {
	kind         Kind
	size, extent int64
	fuse         bool

	// off is the host offset of the first byte per element: the run start
	// for Contig, the first block's offset for Stride. It is nonzero for
	// trueLB>0 spill types.
	off int64

	// Stride parameters: perElem blocks of blockSize bytes, stride apart.
	blockSize int64
	stride    int64
	perElem   int64
	// wide selects the unrolled 8/16-byte word-move inner loop.
	wide bool

	// The region program: one element's regions, split into tiles. The
	// Offsets kernels execute it directly.
	tiles    [][]Region
	nregions int64

	// Verify's preconditions, decided at Lower: ascending reports that
	// one element's regions ascend without overlap from offset 0 on, end
	// is where its last region ends, and span is the distance from its
	// first region's start to end.
	ascending bool
	end, span int64
}

// Kind returns the selected kernel family.
func (p *Plan) Kind() Kind { return p.kind }

// ElemSize returns the packed bytes per element.
func (p *Plan) ElemSize() int64 { return p.size }

// Regions returns the merged region count of one element.
func (p *Plan) Regions() int64 { return p.nregions }

// wideMoveMax bounds the block sizes the unrolled word-move loop handles.
// Past it the runtime memmove's vectorized bulk paths win (measured: 64-byte
// blocks already run ~40% faster through memmove than through 8-byte word
// moves); below it the word moves skip memmove's size dispatch entirely.
const wideMoveMax = 32

// Lower selects the execution plan of a region program. It never fails:
// the Offsets kernel executes any program.
func Lower(pr Program) *Plan {
	p := &Plan{kind: Offsets, size: pr.Size, extent: pr.Extent, fuse: pr.Fuse, tiles: pr.Tiles, ascending: true}
	first := int64(0)
	for _, t := range pr.Tiles {
		for _, r := range t {
			if p.nregions == 0 {
				first = r.Offset
			}
			if r.Offset < p.end {
				p.ascending = false
			}
			p.end = r.Offset + r.Size
			p.nregions++
		}
	}
	p.span = p.end - first
	if p.nregions == 0 || len(pr.Tiles) != 1 {
		return p
	}
	elem := pr.Tiles[0]
	if len(elem) == 1 && pr.Fuse {
		// One region per element fusing across every boundary: the whole
		// message is a single run starting at the region's offset.
		p.kind = Contig
		p.off = elem[0].Offset
		return p
	}
	if bs, st, ok := uniformStride(elem); ok {
		// Fusion is irrelevant here: it merges region boundaries (a timing
		// concern) but never changes the packed bytes, so fused vectors
		// still take the stride kernel.
		p.kind = Stride
		p.off = elem[0].Offset
		p.blockSize = bs
		p.stride = st
		p.perElem = int64(len(elem))
		p.wide = bs%8 == 0 && bs <= wideMoveMax
	}
	return p
}

// uniformStride reports whether every region has the same size and the
// offsets form an arithmetic progression.
func uniformStride(elem []Region) (blockSize, stride int64, ok bool) {
	bs := elem[0].Size
	if len(elem) == 1 {
		return bs, 0, true
	}
	st := elem[1].Offset - elem[0].Offset
	base := elem[0].Offset
	for i, r := range elem {
		if r.Size != bs || r.Offset != base+int64(i)*st {
			return 0, 0, false
		}
	}
	return bs, st, true
}

// ForEach calls fn for every merged contiguous region of count consecutive
// elements, in stream order, with offsets relative to element 0's origin.
// It reproduces the typemap walk block for block: with the fusion bit set,
// the last region of element i and the first region of element i+1 are
// emitted as one run. The per-element regions are maximally merged, so a
// fused boundary never cascades into an element's second region; the one
// unbounded cascade, a single region per element, is the whole message as
// one run.
//
// A flat element replays in two-level loops. Folding the tile loop into
// them costs every element a third loop level: on a 2-vCPU Xeon that read
// 11-25% slower for many small elements, the shape the host cost models
// replay on the served path.
func (p *Plan) ForEach(count int, fn func(off, size int64)) {
	if p.nregions == 0 || count <= 0 {
		return
	}
	if len(p.tiles) > 1 {
		p.forEachTiled(count, fn)
		return
	}
	elem, extent := p.tiles[0], p.extent
	if !p.fuse {
		for i := 0; i < count; i++ {
			shift := int64(i) * extent
			for _, r := range elem {
				fn(r.Offset+shift, r.Size)
			}
		}
		return
	}
	first, last := elem[0], elem[len(elem)-1]
	if len(elem) == 1 {
		fn(first.Offset, first.Size+int64(count-1)*extent)
		return
	}
	mid := elem[1 : len(elem)-1]
	fn(first.Offset, first.Size)
	for _, r := range mid {
		fn(r.Offset, r.Size)
	}
	bridge := last.Size + first.Size
	for i := 1; i < count; i++ {
		shift := int64(i) * extent
		fn(last.Offset+shift-extent, bridge)
		for _, r := range mid {
			fn(r.Offset+shift, r.Size)
		}
	}
	fn(last.Offset+int64(count-1)*extent, last.Size)
}

// forEachTiled is ForEach over an element split into several tiles (more
// regions than one flat slice holds), walking the tile list per element.
func (p *Plan) forEachTiled(count int, fn func(off, size int64)) {
	nt := len(p.tiles)
	first, lastTile := p.tiles[0][0], p.tiles[nt-1]
	last := lastTile[len(lastTile)-1]
	if p.fuse {
		fn(first.Offset, first.Size)
	}
	for i := 0; i < count; i++ {
		shift := int64(i) * p.extent
		for t, tile := range p.tiles {
			if p.fuse && t == 0 {
				tile = tile[1:]
			}
			if p.fuse && t == nt-1 {
				tile = tile[:len(tile)-1]
			}
			for _, r := range tile {
				fn(r.Offset+shift, r.Size)
			}
		}
		if p.fuse {
			// Element i's last region runs on into element i+1's first.
			size := last.Size + first.Size
			if i == count-1 {
				size = last.Size
			}
			fn(last.Offset+shift, size)
		}
	}
}
