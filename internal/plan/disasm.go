package plan

import (
	"fmt"
	"strings"
)

// maxDisasmRegions bounds how many regions an Offsets/list disassembly
// spells out before eliding the tail — enough to pin the layout's shape in
// a snapshot golden without megabyte listings.
const maxDisasmRegions = 16

// Disassemble renders the plan deterministically, one instruction per line
// — the snapshot-golden form diffed by the determinism CI job.
func (p *Plan) Disassemble() string {
	var b strings.Builder
	switch p.kind {
	case Contig:
		fmt.Fprintf(&b, "plan contig size=%d extent=%d\n", p.size, p.extent)
		fmt.Fprintf(&b, "  memmove dst[0:size*count] <- src+%d\n", p.off)
	case Stride:
		mv := "copy"
		if p.wide {
			mv = "copyw"
		}
		fmt.Fprintf(&b, "plan stride size=%d extent=%d blocks/elem=%d\n", p.size, p.extent, p.perElem)
		fmt.Fprintf(&b, "  loop elem, loop b<%d: %s %dB <-> src[elem*%d + b*%d + %d]\n",
			p.perElem, mv, p.blockSize, p.extent, p.stride, p.off)
	default:
		fmt.Fprintf(&b, "plan offsets size=%d extent=%d regions/elem=%d tiles=%d\n",
			p.size, p.extent, p.nregions, len(p.tiles))
		shown := int64(0)
		for _, tile := range p.tiles {
			for _, r := range tile {
				if shown == maxDisasmRegions {
					fmt.Fprintf(&b, "  ... %d more regions\n", p.nregions-shown)
					return b.String()
				}
				fmt.Fprintf(&b, "  copy %dB <-> src+%d\n", r.Size, r.Offset)
				shown++
			}
		}
	}
	return b.String()
}

// Disassemble renders the resolver deterministically, one line per
// instruction — the resolver half of the plan snapshot goldens.
func (g *Gather) Disassemble() string {
	var b strings.Builder
	switch g.kind {
	case GatherContig:
		fmt.Fprintf(&b, "gather contiguous msg=%d\n", g.blockSize)
		b.WriteString("  read [streamOff, streamOff+pkt)\n")
	case GatherVector:
		fmt.Fprintf(&b, "gather vector block=%d stride=%d perElem=%d extent=%d\n",
			g.blockSize, g.stride, g.perElem, g.extent)
		fmt.Fprintf(&b, "  hostOff = (b/%d)*%d + (b%%%d)*%d + within\n",
			g.perElem, g.extent, g.perElem, g.stride)
	default:
		fmt.Fprintf(&b, "gather list regions=%d searchSteps=%d\n", len(g.regions), g.searchSteps)
		for i, r := range g.regions {
			if int64(i) == maxDisasmRegions {
				fmt.Fprintf(&b, "  ... %d more regions\n", len(g.regions)-i)
				return b.String()
			}
			fmt.Fprintf(&b, "  region stream+%d <- host[%d,%d)\n",
				g.streamStart[i], r.Offset, r.Offset+r.Size)
		}
	}
	return b.String()
}
