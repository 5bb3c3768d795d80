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
// elements), and the regions cut into up to three tiles.
func randomProgram(rng *rand.Rand) Program {
	n := 1 + rng.Intn(6)
	uniform := rng.Intn(2) == 0
	bs := int64(1 + rng.Intn(24))
	st := bs + int64(rng.Intn(12))
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
			r.Size = int64(1 + rng.Intn(24))
			pos += r.Size + int64(rng.Intn(12))
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
	inRegion := func(i int64) bool {
		for _, r := range regions {
			if i >= r.Offset && i < r.Offset+r.Size {
				return true
			}
		}
		return false
	}

	cases := map[string][]byte{"clean": ref}
	flip := bytes.Clone(ref)
	r := regions[rng.Intn(len(regions))]
	flip[r.Offset+rng.Int63n(r.Size)] ^= 0x40
	cases["flipped region byte"] = flip

	var gaps []int64
	for i := int64(0); i < hi; i++ {
		if !inRegion(i) {
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

// TestQuickVerifyMatchesReference is the kernel half of the verify
// differential: random programs lowered directly, flat and multi-tile,
// at counts 1-4.
func TestQuickVerifyMatchesReference(t *testing.T) {
	kinds := map[Kind]int{}
	tiled := 0
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := randomProgram(rng)
		kinds[Lower(pr).Kind()]++
		if len(pr.Tiles) > 1 {
			tiled++
		}
		checkVerify(t, rng, pr, int(countRaw%4)+1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if kinds[Contig] == 0 || kinds[Stride] == 0 || kinds[Offsets] == 0 || tiled == 0 {
		t.Fatalf("draws missed a kernel: %v, %d tiled", kinds, tiled)
	}
}

// verifyCases is one lowered program per kernel the verifier runs.
func verifyCases() map[string]Program {
	return map[string]Program{
		"contig":        {Tiles: [][]Region{{{8, 64}}}, Fuse: true, Size: 64, Extent: 64},
		"stride":        {Tiles: [][]Region{{{0, 16}, {32, 16}, {64, 16}}}, Size: 48, Extent: 96},
		"offsets":       {Tiles: [][]Region{{{2, 5}, {9, 11}, {40, 3}}}, Size: 19, Extent: 48},
		"offsets-tiled": {Tiles: [][]Region{{{0, 4}, {8, 6}}, {{20, 2}, {30, 9}}}, Size: 21, Extent: 40},
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
