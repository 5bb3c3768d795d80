package plan

import (
	"bytes"
	"encoding/binary"
)

// Monotone reports whether count elements of the layout occupy regions
// that ascend without overlap from offset 0 on: the layouts Verify
// judges. The per-element half was decided at Lower; across elements it
// needs only that one element's span fits its extent, so consecutive
// elements never interleave.
func (p *Plan) Monotone(count int) bool {
	return p.ascending && (count <= 1 || p.span <= p.extent)
}

// onePassMaxMean is the largest mean region size, in bytes, of a layout
// Verify checks with the one-pass walk. Up to it a call per gap costs more
// than reading the regions a second time: on a 2-vCPU Xeon,
// BenchmarkPlanVerify/stride (64 B regions 64 B apart) took 61 µs
// one-pass against 80 µs per-gap, and layouts of 100-200 B regions ran
// alike either way.
const onePassMaxMean = 128

// shortSpan is the longest region or gap Verify checks with inline loads
// instead of a call.
const shortSpan = 16

// Verify reports whether dst is exactly the reference unpack of packed
// into a zeroed buffer of len(dst) bytes: every region of count elements
// holds its slice of the stream, and every other byte of dst is zero. A
// fused run is two adjacent regions, so fusion does not change the
// verdict. With rezero set, each region is cleared right after its
// check, so a buffer that verifies is left all zero; one that does not is
// left partly cleared.
//
// It walks the regions in address order in one of two ways:
//
//   - The per-gap walk checks the gap before each region for zeros, then
//     the region against the stream. It reads every byte of dst once and
//     needs no write, so it runs whenever rezero is off (dst is the
//     caller's), and on layouts of long regions.
//   - The one-pass walk checks and clears each region, then checks all of
//     dst for zeros in one scan. It reads the regions twice but makes no
//     call per gap, so it runs with rezero set on layouts whose mean
//     region is at most onePassMaxMean bytes (decided at Lower).
//
// Both compare a region or gap of up to shortSpan bytes with inline
// loads: two overlapping words of 8 bytes from 8 bytes on, of 4 bytes from
// 4 on, and up to three single bytes below that. Longer spans go to
// bytes.Equal and allZero.
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
	if p.kind == Contig {
		n := p.size * int64(count)
		if !allZero(dst[:p.off]) || !bytes.Equal(dst[p.off:p.off+n], packed[:n]) {
			return false
		}
		if rezero {
			clear(dst[p.off : p.off+n])
		}
		return allZero(dst[p.off+n:])
	}
	gaps := !rezero || !p.onePass
	var cursor int64 // end of the previous region
	pos, base := int64(0), int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range p.tiles {
			for _, r := range tile {
				off, n := base+r.Offset, r.Size
				if gaps {
					g := dst[cursor:off]
					if len(g) > shortSpan && !allZero(g) || len(g) <= shortSpan && !zeroShort(g) {
						return false
					}
				}
				d, s := dst[off:off+n], packed[pos:pos+n]
				switch {
				case n > shortSpan:
					if !bytes.Equal(d, s) {
						return false
					}
					if rezero {
						clear(d)
					}
				case n >= 8:
					if le.Uint64(d) != le.Uint64(s) || le.Uint64(d[n-8:]) != le.Uint64(s[n-8:]) {
						return false
					}
					if rezero {
						le.PutUint64(d, 0)
						le.PutUint64(d[n-8:], 0)
					}
				case n >= 4:
					if le.Uint32(d) != le.Uint32(s) || le.Uint32(d[n-4:]) != le.Uint32(s[n-4:]) {
						return false
					}
					if rezero {
						le.PutUint32(d, 0)
						le.PutUint32(d[n-4:], 0)
					}
				case n > 0:
					if d[0] != s[0] || d[n/2] != s[n/2] || d[n-1] != s[n-1] {
						return false
					}
					if rezero {
						d[0], d[n/2], d[n-1] = 0, 0, 0
					}
				}
				cursor = off + n
				pos += n
			}
		}
		base += p.extent
	}
	if !gaps {
		return allZero(dst)
	}
	return allZero(dst[cursor:])
}

// zeroShort reports whether b, of at most shortSpan bytes, is all zero,
// with the inline loads of Verify's short regions.
func zeroShort(b []byte) bool {
	n := len(b)
	switch {
	case n >= 8:
		return le.Uint64(b)|le.Uint64(b[n-8:]) == 0
	case n >= 4:
		return le.Uint32(b)|le.Uint32(b[n-4:]) == 0
	case n > 0:
		return b[0]|b[n/2]|b[n-1] == 0
	}
	return true
}

// le loads and stores the short spans. Any byte order would do: a word is
// only compared with the same word of the stream, or with zero.
var le = binary.LittleEndian

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
