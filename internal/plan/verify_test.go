package plan

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMonotone is the brute-force monotonicity check: count elements'
// regions, in stream order, ascend without overlap from offset 0 on.
func refMonotone(pr Program, count int) bool {
	var cursor, base int64
	for e := 0; e < count; e++ {
		for _, tile := range pr.Tiles {
			for _, r := range tile {
				if base+r.Offset < cursor {
					return false
				}
				cursor = base + r.Offset + r.Size
			}
		}
		base += pr.Extent
	}
	return true
}

// randomProgram draws a region program: regions at random sizes and gaps
// (sometimes uniform, so the stride kernel is hit), a first offset that
// may be negative or past zero, sometimes a region out of order, an
// extent that may be shorter than the element's span (interleaving
// elements), and the regions cut into up to three tiles. Sizes and gaps
// are drawn on one of three scales: regions of 1-24 B and gaps under
// 12 B, four times that, or sixteen times that. So regions and gaps land
// on every side of Verify's 4, 8 and 16 B inline loads, and layouts on
// both sides of its one-pass mean region.
func randomProgram(rng *rand.Rand) Program {
	n := 1 + rng.Intn(6)
	uniform := rng.Intn(2) == 0
	scale := []int{1, 4, 16}[rng.Intn(3)]
	bs := int64(1 + rng.Intn(24*scale))
	st := bs + int64(rng.Intn(12*scale))
	pos := int64(rng.Intn(5))
	if rng.Intn(10) == 0 {
		pos = -int64(1 + rng.Intn(4))
	}
	regions := make([]Region, 0, n)
	var size int64
	for i := 0; i < n; i++ {
		r := Region{pos, bs}
		if uniform {
			pos += st
		} else {
			r.Size = int64(1 + rng.Intn(24*scale))
			pos += r.Size + int64(rng.Intn(12*scale))
		}
		regions = append(regions, r)
		size += r.Size
	}
	if n > 1 && rng.Intn(8) == 0 {
		i := rng.Intn(n - 1)
		regions[i], regions[i+1] = regions[i+1], regions[i]
	}
	last := regions[n-1]
	extent := max(last.Offset+last.Size-regions[0].Offset+int64(rng.Intn(8)), 1)
	if rng.Intn(6) == 0 {
		extent = 1 + int64(rng.Intn(int(extent)))
	}
	tiles := [][]Region{regions}
	if n > 2 && rng.Intn(2) == 0 {
		a := 1 + rng.Intn(n-2)
		b := a + 1 + rng.Intn(n-1-a)
		tiles = [][]Region{regions[:a], regions[a:b], regions[b:]}
	} else if n > 1 && rng.Intn(2) == 0 {
		cut := 1 + rng.Intn(n-1)
		tiles = [][]Region{regions[:cut], regions[cut:]}
	}
	return Program{Tiles: tiles, Fuse: last.Offset+last.Size == regions[0].Offset+extent,
		Size: size, Extent: extent}
}

// checkVerify holds Verify to the materialized reference on one program:
// the clean scatter, a flipped region byte, a set gap byte, a region
// shifted by one byte, and a set byte in the tail gap past the last
// region. Each verdict must equal bytes.Equal against the reference
// unpack, and a buffer that verifies with rezero must come back all zero.
func checkVerify(t *testing.T, rng *rand.Rand, pr Program, count int) {
	t.Helper()
	p := Lower(pr)
	if got, want := p.Monotone(count), refMonotone(pr, count); got != want {
		t.Fatalf("Monotone(%d) = %v, brute force %v (program %+v)", count, got, want, pr)
	}
	if !p.Monotone(count) {
		return
	}
	packed := make([]byte, pr.Size*int64(count))
	for i := range packed {
		packed[i] = byte(1 + rng.Intn(255)) // nonzero: a shifted byte always shows
	}
	end := footprint(pr, count)
	hi := end + int64(rng.Intn(4))
	ref := refScatter(pr, count, packed, hi)

	regions := layout(pr, count)
	inRegion := make([]bool, hi)
	for _, r := range regions {
		for i := r.Offset; i < r.Offset+r.Size; i++ {
			inRegion[i] = true
		}
	}

	cases := map[string][]byte{"clean": ref}
	flip := bytes.Clone(ref)
	r := regions[rng.Intn(len(regions))]
	flip[r.Offset+rng.Int63n(r.Size)] ^= 0x40
	cases["flipped region byte"] = flip

	var gaps []int64
	for i := int64(0); i < hi; i++ {
		if !inRegion[i] {
			gaps = append(gaps, i)
		}
	}
	if len(gaps) > 0 {
		gap := bytes.Clone(ref)
		gap[gaps[rng.Intn(len(gaps))]] = 0x5a
		cases["gap byte"] = gap
	}
	if hi > end {
		tail := bytes.Clone(ref)
		tail[hi-1] = 0x5a
		cases["tail gap byte"] = tail
	}
	if r.Offset+r.Size < hi {
		shift := bytes.Clone(ref)
		clear(shift[r.Offset : r.Offset+r.Size])
		copy(shift[r.Offset+1:], ref[r.Offset:r.Offset+r.Size])
		cases["region shifted right"] = shift
	}

	for name, dst := range cases {
		want := bytes.Equal(dst, ref)
		if name != "clean" && want {
			t.Fatalf("%s: mutation left the reference unchanged", name)
		}
		if got := p.Verify(count, packed, bytes.Clone(dst), false); got != want {
			t.Fatalf("%v %s: Verify = %v, reference %v (count %d, hi %d, program %+v)",
				p.Kind(), name, got, want, count, hi, pr)
		}
		buf := bytes.Clone(dst)
		if got := p.Verify(count, packed, buf, true); got != want {
			t.Fatalf("%v %s: Verify(rezero) = %v, reference %v", p.Kind(), name, got, want)
		}
		if want && !allZero(buf) {
			t.Fatalf("%v %s: rezero left nonzero bytes", p.Kind(), name)
		}
	}
}

// layout returns the regions of count elements in stream order, at
// absolute offsets.
func layout(pr Program, count int) []Region {
	var regions []Region
	base := int64(0)
	for e := 0; e < count; e++ {
		for _, tile := range pr.Tiles {
			for _, r := range tile {
				regions = append(regions, Region{base + r.Offset, r.Size})
			}
		}
		base += pr.Extent
	}
	return regions
}

// spanClass buckets a region or gap length by the loads Verify checks it
// with: none, single bytes, two 4-byte words, two 8-byte words, or a call.
func spanClass(n int64) string {
	switch {
	case n == 0:
		return "0"
	case n < 4:
		return "1-3"
	case n < 8:
		return "4-7"
	case n <= shortSpan:
		return "8-16"
	default:
		return "long"
	}
}

// TestQuickVerifyMatchesReference is the kernel half of the verify
// differential: random programs lowered directly, flat and multi-tile,
// at counts 1-4. The draws must reach every plan kind, both walks of a
// rezeroing check, and every span class of regions and gaps.
func TestQuickVerifyMatchesReference(t *testing.T) {
	kinds := map[Kind]int{}
	walks := map[string]int{}
	spans := map[string]int{}
	tiled := 0
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := randomProgram(rng)
		count := int(countRaw%4) + 1
		p := Lower(pr)
		kinds[p.Kind()]++
		if len(pr.Tiles) > 1 {
			tiled++
		}
		if p.Kind() != Contig && p.Monotone(count) {
			if p.onePass {
				walks["one-pass"]++
			} else {
				walks["per-gap"]++
			}
			cursor := int64(0)
			for _, r := range layout(pr, count) {
				spans["region "+spanClass(r.Size)]++
				spans["gap "+spanClass(r.Offset-cursor)]++
				cursor = r.Offset + r.Size
			}
		}
		checkVerify(t, rng, pr, count)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if kinds[Contig] == 0 || kinds[Stride] == 0 || kinds[Offsets] == 0 || tiled == 0 {
		t.Fatalf("draws missed a kernel: %v, %d tiled", kinds, tiled)
	}
	if walks["one-pass"] == 0 || walks["per-gap"] == 0 {
		t.Fatalf("draws missed a walk: %v", walks)
	}
	for _, class := range []string{"1-3", "4-7", "8-16", "long"} {
		for _, span := range []string{"region ", "gap "} {
			if spans[span+class] == 0 {
				t.Fatalf("draws missed %s%s B: %v", span, class, spans)
			}
		}
	}
}

// TestVerifyLongGap checks a gap longer than the 64 KiB zero array, under
// both walks: a clean buffer verifies, and one byte set past the array's
// length in the gap fails the check.
func TestVerifyLongGap(t *testing.T) {
	const gap = int64(len(zeros)) + 4096
	for name, size := range map[string]int64{"one-pass": 8, "per-gap": onePassMaxMean + 8} {
		pr := Program{Tiles: [][]Region{{{0, size}, {size + gap, size}}}, Size: 2 * size, Extent: 2*size + gap}
		p := Lower(pr)
		if p.onePass != (name == "one-pass") {
			t.Fatalf("%s: onePass = %v", name, p.onePass)
		}
		packed := make([]byte, pr.Size)
		for i := range packed {
			packed[i] = byte(i + 1)
		}
		hi := footprint(pr, 1)
		for _, rezero := range []bool{false, true} {
			dst := refScatter(pr, 1, packed, hi)
			if !p.Verify(1, packed, dst, rezero) {
				t.Fatalf("%s (rezero %v): clean buffer rejected", name, rezero)
			}
			dst = refScatter(pr, 1, packed, hi)
			dst[size+int64(len(zeros))+100] = 1
			if p.Verify(1, packed, dst, rezero) {
				t.Fatalf("%s (rezero %v): a set byte %d B into the gap verified", name, rezero, len(zeros)+100)
			}
		}
	}
}

// verifyCases is one lowered program per kernel the verifier runs, and
// one of short regions that rezeroes in the one-pass walk.
func verifyCases() map[string]Program {
	return map[string]Program{
		"contig":        {Tiles: [][]Region{{{8, 64}}}, Fuse: true, Size: 64, Extent: 64},
		"stride":        {Tiles: [][]Region{{{0, 16}, {32, 16}, {64, 16}}}, Size: 48, Extent: 96},
		"offsets":       {Tiles: [][]Region{{{2, 5}, {9, 11}, {40, 3}}}, Size: 19, Extent: 48},
		"offsets-tiled": {Tiles: [][]Region{{{0, 4}, {8, 6}}, {{20, 2}, {30, 9}}}, Size: 21, Extent: 40},
		"offsets-tiny":  {Tiles: [][]Region{{{0, 4}, {8, 4}, {20, 4}, {28, 1}, {30, 2}, {36, 8}}}, Size: 23, Extent: 48},
	}
}

// TestVerifyAllocatesNothing pins the kernel's allocation budget on
// every plan kind, flat and tiled, with and without rezeroing.
func TestVerifyAllocatesNothing(t *testing.T) {
	for name, pr := range verifyCases() {
		const count = 4
		p := Lower(pr)
		packed := make([]byte, pr.Size*count)
		for i := range packed {
			packed[i] = byte(i + 1)
		}
		hi := footprint(pr, count)
		dst := make([]byte, hi)
		for _, rezero := range []bool{false, true} {
			allocs := testing.AllocsPerRun(100, func() {
				p.Unpack(count, packed, dst)
				if !p.Verify(count, packed, dst, rezero) {
					t.Fatalf("%s: clean buffer rejected", name)
				}
			})
			if allocs != 0 {
				t.Errorf("%s (%v, rezero %v): %v allocs per verify", name, p.Kind(), rezero, allocs)
			}
		}
	}
}
