package ddt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"spinddt/internal/plan"
)

// recursiveBlocks walks the constructor tree directly (the pre-compilation
// reference path), bypassing the plan's region program.
func recursiveBlocks(t *Type, count int) []Block {
	var out []Block
	m := &merger{emit: func(off, size int64) {
		out = append(out, Block{Offset: off, Size: size})
	}}
	for i := 0; i < count; i++ {
		t.forEach(int64(i)*t.extent, m)
	}
	m.flush()
	return out
}

// checkCompiledAgainstRecursive asserts that the plan's replay reproduces
// the recursive walk exactly: identical block streams, identical TotalBlocks
// and byte-identical pack/unpack round trips.
func checkCompiledAgainstRecursive(t *testing.T, typ *Type, count int) {
	t.Helper()
	want := recursiveBlocks(typ, count)
	typ.Commit()
	got := typ.Flatten(count)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("count=%d: compiled blocks differ\n got %v\nwant %v\n%s",
			count, got, want, typ.Describe())
	}
	if n := typ.TotalBlocks(count); n != int64(len(want)) {
		t.Fatalf("count=%d: TotalBlocks = %d, recursive walk emits %d\n%s",
			count, n, len(want), typ.Describe())
	}

	lo, hi := typ.Footprint(count)
	if lo < 0 {
		return // pack/unpack need a non-negative origin; blocks already checked
	}
	src := make([]byte, hi)
	for i := range src {
		src[i] = byte(i*131 + 17)
	}
	packed, err := Pack(typ, count, src)
	if err != nil {
		t.Fatalf("count=%d: pack: %v", count, err)
	}
	// Reference gather straight off the recursive block list.
	wantPacked := make([]byte, 0, typ.Size()*int64(count))
	for _, b := range want {
		wantPacked = append(wantPacked, src[b.Offset:b.Offset+b.Size]...)
	}
	if !bytes.Equal(packed, wantPacked) {
		t.Fatalf("count=%d: compiled pack differs from recursive gather\n%s",
			count, typ.Describe())
	}
	dst := make([]byte, hi)
	if err := Unpack(typ, count, packed, dst); err != nil {
		t.Fatalf("count=%d: unpack: %v", count, err)
	}
	wantDst := make([]byte, hi)
	for _, b := range want {
		copy(wantDst[b.Offset:b.Offset+b.Size], src[b.Offset:b.Offset+b.Size])
	}
	if !bytes.Equal(dst, wantDst) {
		t.Fatalf("count=%d: compiled unpack differs from recursive scatter\n%s",
			count, typ.Describe())
	}
}

// isTiled reports whether the type lowered to an Offsets plan of exactly
// tiles tiles, as its disassembly header states.
func isTiled(typ *Type, tiles int) bool {
	p := typ.Plan()
	return p != nil && p.Kind() == plan.Offsets &&
		strings.Contains(p.Disassemble(), fmt.Sprintf(" tiles=%d\n", tiles))
}

func TestQuickCompiledMatchesRecursive(t *testing.T) {
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := RandomType(rng, 3)
		checkCompiledAgainstRecursive(t, typ, int(countRaw%5)+1)
		return true
	}
	// The default caps replay flat elements; the shrunk ones split every
	// multi-region element into 2-region tiles, so the tiled replay runs
	// too, including tiles its fused boundaries leave empty.
	saved := [3]int64{compiledBlockCap, tileBlocks, tiledBlockCap}
	defer func() { compiledBlockCap, tileBlocks, tiledBlockCap = saved[0], saved[1], saved[2] }()
	for _, caps := range [][3]int64{saved, {1, 2, 1 << 20}} {
		compiledBlockCap, tileBlocks, tiledBlockCap = caps[0], caps[1], caps[2]
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("caps %v: %v", caps, err)
		}
	}
}

func TestCompiledBoundaryFusion(t *testing.T) {
	// Single region per element, size == extent: the whole message is one
	// contiguous run.
	dense := MustContiguous(5, Int)
	if got := dense.Flatten(4); !reflect.DeepEqual(got, []Block{{Offset: 0, Size: 80}}) {
		t.Fatalf("dense blocks = %v", got)
	}
	if n := dense.TotalBlocks(4); n != 1 {
		t.Fatalf("dense TotalBlocks = %d", n)
	}

	// Multi-region element whose LAST region ends exactly at the extent:
	// blocks [0,4) and [8,16) with extent 16, so element i+1's first region
	// at 16i+0 continues element i's last region ending at 16(i-1)+16.
	fused := MustIndexed([]int{1, 2}, []int{0, 2}, Int)
	if fused.Extent() != 16 {
		t.Fatalf("extent = %d", fused.Extent())
	}
	want := []Block{{Offset: 0, Size: 4}, {Offset: 8, Size: 12}, {Offset: 24, Size: 12}, {Offset: 40, Size: 8}}
	if got := fused.Flatten(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("fused blocks = %v, want %v", got, want)
	}
	// 2 regions per element, 3 elements, 2 fused boundaries: 2*3-2 = 4.
	if n := fused.TotalBlocks(3); n != 4 {
		t.Fatalf("fused TotalBlocks = %d", n)
	}
	checkCompiledAgainstRecursive(t, fused, 3)

	// Padding after the last region keeps elements separate.
	padded := MustResized(MustContiguous(2, Int), 0, 12)
	if n := padded.TotalBlocks(3); n != 3 {
		t.Fatalf("padded TotalBlocks = %d", n)
	}
	checkCompiledAgainstRecursive(t, padded, 3)
}

func TestCompiledCapFallsBackToStreaming(t *testing.T) {
	savedFlat, savedTile, savedTiled := compiledBlockCap, tileBlocks, tiledBlockCap
	compiledBlockCap, tileBlocks, tiledBlockCap = 4, 3, 6
	defer func() { compiledBlockCap, tileBlocks, tiledBlockCap = savedFlat, savedTile, savedTiled }()

	typ := MustVector(8, 1, 2, Int) // 8 regions: above even the tiled cap
	if typ.Plan() != nil {
		t.Fatal("plan lowered above the tiled cap")
	}
	if typ.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d", typ.NumBlocks())
	}
	checkCompiledAgainstRecursive(t, typ, 3)

	// Between the flat and tiled caps the program compiles tiled and still
	// replays exactly.
	mid := MustVector(6, 1, 2, Int) // 6 regions: above flat (4), within tiled (6)
	if !isTiled(mid, 2) {
		t.Fatal("want a plan of 2 tiles (6 regions at tileBlocks=3)")
	}
	checkCompiledAgainstRecursive(t, mid, 3)

	// Under the flat cap the program exists and agrees.
	small := MustVector(3, 1, 2, Int)
	if p := small.Plan(); p == nil || p.Kind() != plan.Stride {
		t.Fatal("flat stride plan missing below the cap")
	}
	checkCompiledAgainstRecursive(t, small, 3)
}

func TestTiledReplayFusedBoundaries(t *testing.T) {
	savedFlat, savedTile, savedTiled := compiledBlockCap, tileBlocks, tiledBlockCap
	compiledBlockCap, tileBlocks, tiledBlockCap = 2, 2, 64
	defer func() { compiledBlockCap, tileBlocks, tiledBlockCap = savedFlat, savedTile, savedTiled }()

	// 4 regions per element with the last region ending at the extent, so
	// element boundaries fuse — the hardest replay case, now spanning
	// multiple tiles.
	fused := MustIndexed([]int{1, 1, 1, 2}, []int{0, 2, 4, 6}, Int)
	if !isTiled(fused, 2) {
		t.Fatalf("expected a tiled program (regions=%d)", fused.NumBlocks())
	}
	if !fused.fuse {
		t.Fatal("expected fused element boundaries")
	}
	for count := 1; count <= 4; count++ {
		checkCompiledAgainstRecursive(t, fused, count)
	}

	// Non-fused multi-tile replay: trailing padding keeps elements apart.
	padded := MustResized(MustIndexed([]int{1, 1, 1}, []int{0, 2, 4}, Int), 0, 28)
	if !isTiled(padded, 2) {
		t.Fatal("expected a tiled program")
	}
	for count := 1; count <= 3; count++ {
		checkCompiledAgainstRecursive(t, padded, count)
	}
}
