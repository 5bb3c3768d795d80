package plan

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// refPack is the brute-force reference: gather every region of every
// element in stream order.
func refPack(pr Program, count int, src []byte) []byte {
	out := make([]byte, 0, pr.Size*int64(count))
	base := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range pr.Tiles {
			for _, r := range tile {
				off := base + r.Offset
				out = append(out, src[off:off+r.Size]...)
			}
		}
		base += pr.Extent
	}
	return out
}

// refScatter is the brute-force reference unpack: packed scattered
// through every region of count elements into a zeroed buffer of hi
// bytes.
func refScatter(pr Program, count int, packed []byte, hi int64) []byte {
	out := make([]byte, hi)
	base := int64(0)
	pos := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range pr.Tiles {
			for _, r := range tile {
				copy(out[base+r.Offset:base+r.Offset+r.Size], packed[pos:pos+r.Size])
				pos += r.Size
			}
		}
		base += pr.Extent
	}
	return out
}

// footprint returns the byte range the program's regions touch for count
// elements.
func footprint(pr Program, count int) int64 {
	var hi int64
	base := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range pr.Tiles {
			for _, r := range tile {
				if end := base + r.Offset + r.Size; end > hi {
					hi = end
				}
			}
		}
		base += pr.Extent
	}
	return hi
}

func checkKernels(t *testing.T, pr Program, count int) {
	t.Helper()
	p := Lower(pr)
	hi := footprint(pr, count)
	src := make([]byte, hi)
	for i := range src {
		src[i] = byte(i*151 + 29)
	}
	want := refPack(pr, count, src)
	sum := Checksum(want)

	dst := make([]byte, pr.Size*int64(count))
	p.Pack(count, src, dst)
	if !bytes.Equal(dst, want) {
		t.Fatalf("%v pack differs: got %v want %v (program %+v)", p.Kind(), dst, want, pr)
	}
	dst2 := make([]byte, len(dst))
	if got := p.PackSum(count, src, dst2); got != sum || !bytes.Equal(dst2, want) {
		t.Fatalf("%v PackSum = %08x (bytes ok=%v), want %08x", p.Kind(), got, bytes.Equal(dst2, want), sum)
	}

	wantScatter := refScatter(pr, count, want, hi)
	out := make([]byte, hi)
	p.Unpack(count, want, out)
	if !bytes.Equal(out, wantScatter) {
		t.Fatalf("%v unpack differs (program %+v)", p.Kind(), pr)
	}
	out2 := make([]byte, hi)
	if got := p.UnpackSum(count, want, out2); got != sum || !bytes.Equal(out2, wantScatter) {
		t.Fatalf("%v UnpackSum = %08x, want %08x", p.Kind(), got, sum)
	}

	if !p.Equal(count, src, want) {
		t.Fatalf("%v Equal rejects its own stream", p.Kind())
	}
	if len(want) > 0 {
		want[len(want)/2] ^= 1
		if p.Equal(count, src, want) {
			t.Fatalf("%v Equal accepts a corrupted stream", p.Kind())
		}
	}
}

func TestLowerSelection(t *testing.T) {
	cases := []struct {
		name     string
		pr       Program
		want     Kind
		wantWide bool
	}{
		{
			name: "contig",
			pr:   Program{Tiles: [][]Region{{{0, 16}}}, Fuse: true, Size: 16, Extent: 16},
			want: Contig,
		},
		{
			name: "displaced contig",
			pr:   Program{Tiles: [][]Region{{{8, 4}}}, Fuse: true, Size: 4, Extent: 4},
			want: Contig,
		},
		{
			name: "single unfused block is stride",
			pr:   Program{Tiles: [][]Region{{{0, 8}}}, Size: 8, Extent: 12},
			want: Stride, wantWide: true,
		},
		{
			name: "wide stride",
			pr:   Program{Tiles: [][]Region{{{0, 16}, {32, 16}}}, Size: 32, Extent: 64},
			want: Stride, wantWide: true,
		},
		{
			name: "narrow stride",
			pr:   Program{Tiles: [][]Region{{{0, 3}, {8, 3}}}, Size: 6, Extent: 16},
			want: Stride,
		},
		{
			name: "huge blocks take memmove",
			pr:   Program{Tiles: [][]Region{{{0, 64}, {128, 64}}}, Size: 128, Extent: 256},
			want: Stride,
		},
		{
			name: "irregular sizes",
			pr:   Program{Tiles: [][]Region{{{0, 4}, {8, 6}}}, Size: 10, Extent: 16},
			want: Offsets,
		},
		{
			name: "non-arithmetic offsets",
			pr:   Program{Tiles: [][]Region{{{0, 4}, {8, 4}, {20, 4}}}, Size: 12, Extent: 32},
			want: Offsets,
		},
		{
			name: "tiled stays offsets",
			pr:   Program{Tiles: [][]Region{{{0, 4}}, {{8, 4}}}, Size: 8, Extent: 16},
			want: Offsets,
		},
		{
			name: "empty program",
			pr:   Program{Size: 0, Extent: 1},
			want: Offsets,
		},
	}
	for _, c := range cases {
		p := Lower(c.pr)
		if p.Kind() != c.want {
			t.Errorf("%s: kind %v, want %v", c.name, p.Kind(), c.want)
			continue
		}
		if p.kind == Stride && p.wide != c.wantWide {
			t.Errorf("%s: wide %v, want %v", c.name, p.wide, c.wantWide)
		}
		for count := 1; count <= 3; count++ {
			checkKernels(t, c.pr, count)
		}
	}
}

func TestQuickKernelsMatchReference(t *testing.T) {
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random monotone non-overlapping region list, sometimes split into
		// tiles, sometimes strided-uniform so every kernel family is hit.
		var regions []Region
		pos := int64(rng.Intn(4))
		n := 1 + rng.Intn(6)
		uniform := rng.Intn(2) == 0
		bs := int64(1 + rng.Intn(40))
		st := bs + int64(rng.Intn(16))
		for i := 0; i < n; i++ {
			if uniform {
				regions = append(regions, Region{pos, bs})
				pos += st
			} else {
				size := int64(1 + rng.Intn(40))
				regions = append(regions, Region{pos, size})
				pos += size + int64(rng.Intn(16))
			}
		}
		var size int64
		for _, r := range regions {
			size += r.Size
		}
		last := regions[len(regions)-1]
		extent := last.Offset + last.Size + int64(rng.Intn(8))
		tiles := [][]Region{regions}
		if rng.Intn(3) == 0 && len(regions) > 1 {
			cut := 1 + rng.Intn(len(regions)-1)
			tiles = [][]Region{regions[:cut], regions[cut:]}
		}
		pr := Program{Tiles: tiles, Fuse: last.Offset+last.Size == extent && regions[0].Offset == 0,
			Size: size, Extent: extent}
		checkKernels(t, pr, int(countRaw%4)+1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// sliceReader reads from an in-memory host buffer — the test double of the
// DMA read path.
type sliceReader []byte

func (s sliceReader) Read(hostOff int64, dst []byte) {
	copy(dst, s[hostOff:hostOff+int64(len(dst))])
}

// sliceWriter writes into an in-memory host buffer — the test double of
// the DMA write path.
type sliceWriter []byte

func (s sliceWriter) Write(hostOff int64, data []byte) {
	copy(s[hostOff:hostOff+int64(len(data))], data)
}

// gatherRef packs the whole message through pl (the receive-side kernels,
// already differential-tested) to serve as the gather oracle, and unpacks
// it through pl to serve as the scatter oracle: every packet resolved from
// host is scattered back into a zeroed buffer, touching the same number of
// regions in both directions.
func gatherRef(t *testing.T, g *Gather, pl *Plan, count int, host []byte, msgSize int64) {
	t.Helper()
	want := make([]byte, msgSize)
	pl.Pack(count, host, want)
	wantScatter := make([]byte, len(host))
	pl.Unpack(count, want, wantScatter)

	for _, pkt := range []int64{1, 3, 7, 16, 64, msgSize} {
		if pkt <= 0 || pkt > msgSize {
			continue
		}
		got := make([]byte, msgSize)
		scattered := make([]byte, len(host))
		var blocks int64
		for off := int64(0); off < msgSize; off += pkt {
			n := pkt
			if n > msgSize-off {
				n = msgSize - off
			}
			b := g.Resolve(off, n, got[off:off+n], sliceReader(host))
			// Timing-only mode must report the identical block count.
			if tb := g.Resolve(off, n, nil, nil); tb != b {
				t.Fatalf("timing-only resolve %d blocks, payload resolve %d", tb, b)
			}
			if sb := g.Scatter(off, got[off:off+n], sliceWriter(scattered)); sb != b {
				t.Fatalf("%v scatter of packet %d+%d touched %d blocks, gather %d", g.Kind(), off, n, sb, b)
			}
			blocks += b
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v gather (pkt=%d) differs from pack reference", g.Kind(), pkt)
		}
		if !bytes.Equal(scattered, wantScatter) {
			t.Fatalf("%v scatter (pkt=%d) differs from unpack reference", g.Kind(), pkt)
		}
		if blocks <= 0 {
			t.Fatalf("%v gather resolved %d blocks", g.Kind(), blocks)
		}
	}
}

func TestGatherResolveMatchesPack(t *testing.T) {
	host := make([]byte, 4096)
	for i := range host {
		host[i] = byte(i*97 + 13)
	}

	t.Run("contiguous", func(t *testing.T) {
		const msg = 300
		g := NewContigGather(msg)
		if g.Kind() != GatherContig || g.SearchSteps() != 0 {
			t.Fatalf("kind %v steps %d", g.Kind(), g.SearchSteps())
		}
		pl := Lower(Program{Tiles: [][]Region{{{0, msg}}}, Fuse: true, Size: msg, Extent: msg})
		gatherRef(t, g, pl, 1, host, msg)
	})

	t.Run("vector", func(t *testing.T) {
		// 5 blocks of 12 bytes, 20 apart, elements 100 apart, 4 elements.
		g := NewVectorGather(12, 20, 5, 100)
		if g.Kind() != GatherVector || g.SearchSteps() != 0 {
			t.Fatalf("kind %v steps %d", g.Kind(), g.SearchSteps())
		}
		elem := []Region{{0, 12}, {20, 12}, {40, 12}, {60, 12}, {80, 12}}
		pl := Lower(Program{Tiles: [][]Region{elem}, Size: 60, Extent: 100})
		if pl.Kind() != Stride {
			t.Fatalf("reference plan kind %v", pl.Kind())
		}
		gatherRef(t, g, pl, 4, host, 240)
	})

	t.Run("list", func(t *testing.T) {
		// Irregular regions of the FULL message (2 elements pre-expanded).
		regions := []Region{{3, 5}, {16, 11}, {40, 2}, {64, 33}, {103, 5}, {116, 11}, {140, 2}, {164, 33}}
		var total int64
		for _, r := range regions {
			total += r.Size
		}
		g := NewListGather(regions)
		if g.Kind() != GatherList {
			t.Fatalf("kind %v", g.Kind())
		}
		if g.SearchSteps() != 4 { // bits.Len(8) = 4
			t.Fatalf("searchSteps %d, want 4", g.SearchSteps())
		}
		pl := Lower(Program{Tiles: [][]Region{regions}, Size: total, Extent: 200})
		gatherRef(t, g, pl, 1, host, total)
	})
}

func TestDisassembleDeterministic(t *testing.T) {
	contig := Lower(Program{Tiles: [][]Region{{{4, 8}}}, Fuse: true, Size: 8, Extent: 8})
	if got := contig.Disassemble(); !strings.Contains(got, "plan contig size=8") ||
		!strings.Contains(got, "src+4") {
		t.Errorf("contig disassembly:\n%s", got)
	}

	stride := Lower(Program{Tiles: [][]Region{{{0, 16}, {32, 16}}}, Size: 32, Extent: 64})
	if got := stride.Disassemble(); !strings.Contains(got, "plan stride") ||
		!strings.Contains(got, "copyw 16B") {
		t.Errorf("stride disassembly:\n%s", got)
	}

	// Offsets with more regions than maxDisasmRegions elides the tail.
	var many []Region
	for i := int64(0); i < maxDisasmRegions+5; i++ {
		many = append(many, Region{i * 8, 3})
	}
	many[1].Size = 4 // break uniformity
	off := Lower(Program{Tiles: [][]Region{many}, Size: 3*(maxDisasmRegions+5) + 1, Extent: 400})
	got := off.Disassemble()
	if !strings.Contains(got, "... 5 more regions") {
		t.Errorf("offsets disassembly missing elision:\n%s", got)
	}
	if off.Disassemble() != got {
		t.Error("disassembly not deterministic")
	}

	g := NewListGather([]Region{{0, 8}, {16, 8}})
	if got := g.Disassemble(); !strings.Contains(got, "gather list regions=2") ||
		!strings.Contains(got, "region stream+8 <- host[16,24)") {
		t.Errorf("list gather disassembly:\n%s", got)
	}
}
