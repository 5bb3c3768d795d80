package plan

import (
	"bytes"
	"encoding/binary"
)

// copyWide moves len(src) bytes — a multiple of 8 — with unrolled 16-byte
// word moves. binary.LittleEndian loads/stores compile to single unaligned
// machine words on little-endian targets and round-trip bytes on any
// target, so no alignment fixup is needed.
func copyWide(dst, src []byte) {
	for len(src) >= 16 {
		a := binary.LittleEndian.Uint64(src)
		b := binary.LittleEndian.Uint64(src[8:])
		binary.LittleEndian.PutUint64(dst, a)
		binary.LittleEndian.PutUint64(dst[8:], b)
		src = src[16:]
		dst = dst[16:]
	}
	if len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	}
}

// Pack gathers count elements from src into dst, producing the byte stream
// of the reference ddt.Pack. Caller contract (all kernels): dst holds
// ElemSize*count bytes and src covers the element footprint
// [trueLB, (count-1)*extent + trueUB) with trueLB >= 0.
func (p *Plan) Pack(count int, src, dst []byte) {
	switch p.kind {
	case Contig:
		n := p.size * int64(count)
		copy(dst[:n], src[p.off:p.off+n])
	case Stride:
		p.packStride(count, src, dst)
	default:
		p.packOffsets(count, src, dst)
	}
}

func (p *Plan) packStride(count int, src, dst []byte) {
	bs, st, n, ext := p.blockSize, p.stride, p.perElem, p.extent
	pos := int64(0)
	base := p.off
	if p.wide {
		for e := 0; e < count; e++ {
			off := base
			for b := int64(0); b < n; b++ {
				copyWide(dst[pos:pos+bs:pos+bs], src[off:off+bs:off+bs])
				off += st
				pos += bs
			}
			base += ext
		}
		return
	}
	for e := 0; e < count; e++ {
		off := base
		for b := int64(0); b < n; b++ {
			copy(dst[pos:pos+bs], src[off:off+bs])
			off += st
			pos += bs
		}
		base += ext
	}
}

func (p *Plan) packOffsets(count int, src, dst []byte) {
	pos := int64(0)
	base := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range p.tiles {
			for _, r := range tile {
				off := base + r.Offset
				copy(dst[pos:pos+r.Size], src[off:off+r.Size])
				pos += r.Size
			}
		}
		base += p.extent
	}
}

// Unpack scatters a packed stream into dst according to count elements,
// the inverse of Pack (same caller contract, with dst covering the
// footprint and packed holding ElemSize*count bytes).
func (p *Plan) Unpack(count int, packed, dst []byte) {
	switch p.kind {
	case Contig:
		n := p.size * int64(count)
		copy(dst[p.off:p.off+n], packed[:n])
	case Stride:
		p.unpackStride(count, packed, dst)
	default:
		p.unpackOffsets(count, packed, dst)
	}
}

func (p *Plan) unpackStride(count int, packed, dst []byte) {
	bs, st, n, ext := p.blockSize, p.stride, p.perElem, p.extent
	pos := int64(0)
	base := p.off
	if p.wide {
		for e := 0; e < count; e++ {
			off := base
			for b := int64(0); b < n; b++ {
				copyWide(dst[off:off+bs:off+bs], packed[pos:pos+bs:pos+bs])
				off += st
				pos += bs
			}
			base += ext
		}
		return
	}
	for e := 0; e < count; e++ {
		off := base
		for b := int64(0); b < n; b++ {
			copy(dst[off:off+bs], packed[pos:pos+bs])
			off += st
			pos += bs
		}
		base += ext
	}
}

func (p *Plan) unpackOffsets(count int, packed, dst []byte) {
	pos := int64(0)
	base := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range p.tiles {
			for _, r := range tile {
				off := base + r.Offset
				copy(dst[off:off+r.Size], packed[pos:pos+r.Size])
				pos += r.Size
			}
		}
		base += p.extent
	}
}

// Equal reports whether packed[:ElemSize*count] is exactly the stream Pack
// would gather from src — the fused wire-stream verification, region by
// region, with no scratch pack.
func (p *Plan) Equal(count int, src, packed []byte) bool {
	switch p.kind {
	case Contig:
		n := p.size * int64(count)
		return bytes.Equal(packed[:n], src[p.off:p.off+n])
	case Stride:
		bs, st, n, ext := p.blockSize, p.stride, p.perElem, p.extent
		pos := int64(0)
		base := p.off
		for e := 0; e < count; e++ {
			off := base
			for b := int64(0); b < n; b++ {
				if !bytes.Equal(packed[pos:pos+bs], src[off:off+bs]) {
					return false
				}
				off += st
				pos += bs
			}
			base += ext
		}
		return true
	default:
		pos := int64(0)
		base := int64(0)
		for e := 0; e < count; e++ {
			for _, tile := range p.tiles {
				for _, r := range tile {
					off := base + r.Offset
					if !bytes.Equal(packed[pos:pos+r.Size], src[off:off+r.Size]) {
						return false
					}
					pos += r.Size
				}
			}
			base += p.extent
		}
		return true
	}
}
