package plan

import "bytes"

// Monotone reports whether count elements of the layout occupy regions
// that ascend without overlap from offset 0 on: the layouts Verify
// judges. The per-element half was decided at Lower; across elements it
// needs only that one element's span fits its extent, so consecutive
// elements never interleave.
func (p *Plan) Monotone(count int) bool {
	return p.ascending && (count <= 1 || p.span <= p.extent)
}

// Verify reports whether dst is exactly the reference unpack of packed
// into a zeroed buffer of len(dst) bytes: every region of count elements
// holds its slice of the stream, and every other byte of dst is zero. A
// fused run is two adjacent regions, so fusion does not change the
// verdict. With rezero set, each region is cleared right after its
// check, so a buffer that verifies is left all zero; one that does not is
// left partly cleared.
//
// Verify requires Monotone(count) and packed of ElemSize*count bytes. A
// region that reaches past len(dst) fails the check. It allocates
// nothing.
func (p *Plan) Verify(count int, packed, dst []byte, rezero bool) bool {
	hi := int64(len(dst))
	if p.nregions == 0 || count <= 0 {
		return allZero(dst)
	}
	if int64(count-1)*p.extent+p.end > hi {
		return false
	}
	var cursor int64 // end of the previous region
	switch p.kind {
	case Contig:
		n := p.size * int64(count)
		if !allZero(dst[:p.off]) || !bytes.Equal(dst[p.off:p.off+n], packed[:n]) {
			return false
		}
		if rezero {
			clear(dst[p.off : p.off+n])
		}
		cursor = p.off + n
	case Stride:
		bs, st, n, ext := p.blockSize, p.stride, p.perElem, p.extent
		pos := int64(0)
		base := p.off
		for e := 0; e < count; e++ {
			off := base
			for b := int64(0); b < n; b++ {
				if !allZero(dst[cursor:off]) || !bytes.Equal(dst[off:off+bs], packed[pos:pos+bs]) {
					return false
				}
				if rezero {
					clear(dst[off : off+bs])
				}
				cursor = off + bs
				off += st
				pos += bs
			}
			base += ext
		}
	default:
		pos := int64(0)
		base := int64(0)
		for e := 0; e < count; e++ {
			for _, tile := range p.tiles {
				for _, r := range tile {
					off := base + r.Offset
					if !allZero(dst[cursor:off]) || !bytes.Equal(dst[off:off+r.Size], packed[pos:pos+r.Size]) {
						return false
					}
					if rezero {
						clear(dst[off : off+r.Size])
					}
					cursor = off + r.Size
					pos += r.Size
				}
			}
			base += p.extent
		}
	}
	return allZero(dst[cursor:])
}

// zeros backs the vectorized gap checks of Verify.
var zeros [64 << 10]byte

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
}
