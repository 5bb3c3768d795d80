package ddt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"spinddt/internal/plan"
)

// Differential tests of the lowered execution plans: every kernel of
// Type.Plan() must reproduce the recursive constructor walk byte for byte,
// across random types, counts and buffer alignments — including trueLB>0
// spill types (the PR 4 Contiguous regression net) and tiled programs.

// checkPlanAgainstReference packs and unpacks count elements through the
// lowered plan and through the recursive block walk, over src/dst slices
// whose backing-array alignment is shifted by align bytes (exercising the
// unaligned word-move paths).
func checkPlanAgainstReference(t *testing.T, typ *Type, count int, align int) {
	t.Helper()
	p := typ.Plan()
	if p == nil {
		t.Fatalf("no plan for %s", typ.Describe())
	}
	lo, hi := typ.Footprint(count)
	if lo < 0 {
		return // plan fast path is gated off for negative origins
	}
	blocks := recursiveBlocks(typ, count)
	msgSize := typ.Size() * int64(count)
	if p.ElemSize()*int64(count) != msgSize {
		t.Fatalf("plan ElemSize %d, type size %d\n%s", p.ElemSize(), typ.Size(), typ.Describe())
	}

	srcBack := make([]byte, int(hi)+align)
	src := srcBack[align:]
	for i := range src {
		src[i] = byte(i*167 + 43)
	}
	wantPacked := make([]byte, 0, msgSize)
	for _, b := range blocks {
		wantPacked = append(wantPacked, src[b.Offset:b.Offset+b.Size]...)
	}

	packedBack := make([]byte, int(msgSize)+align)
	packed := packedBack[align:]
	p.Pack(count, src, packed)
	if !bytes.Equal(packed, wantPacked) {
		t.Fatalf("count=%d align=%d: plan %v pack differs from recursive gather\n%s",
			count, align, p.Kind(), typ.Describe())
	}

	wantDst := make([]byte, hi)
	for _, b := range blocks {
		copy(wantDst[b.Offset:b.Offset+b.Size], src[b.Offset:b.Offset+b.Size])
	}
	dstBack := make([]byte, int(hi)+align)
	dst := dstBack[align:]
	p.Unpack(count, packed, dst)
	if !bytes.Equal(dst, wantDst) {
		t.Fatalf("count=%d align=%d: plan %v unpack differs from recursive scatter\n%s",
			count, align, p.Kind(), typ.Describe())
	}

	if !p.Equal(count, src, packed) {
		t.Fatalf("count=%d align=%d: Equal rejects the plan's own stream\n%s",
			count, align, typ.Describe())
	}
	if msgSize > 0 {
		i := int(msgSize) / 2
		packed[i] ^= 0xff
		if p.Equal(count, src, packed) {
			t.Fatalf("count=%d align=%d: Equal accepts a corrupted stream\n%s",
				count, align, typ.Describe())
		}
		packed[i] ^= 0xff
	}
}

func TestQuickPlanMatchesReference(t *testing.T) {
	f := func(seed int64, countRaw, alignRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := RandomType(rng, 3)
		checkPlanAgainstReference(t, typ, int(countRaw%5)+1, int(alignRaw%8))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanKindSelection(t *testing.T) {
	cases := []struct {
		name string
		typ  *Type
		want plan.Kind
	}{
		{"contiguous", MustContiguous(8, Int), plan.Contig},
		{"dense vector", MustVector(4, 4, 4, Int), plan.Contig},
		{"strided vector", MustVector(4, 2, 8, Int), plan.Stride},
		{"uniform indexed", MustIndexedBlock(2, []int{0, 4, 8}, Int), plan.Stride},
		{"irregular indexed", MustIndexed([]int{1, 3}, []int{0, 2}, Int), plan.Offsets},
	}
	for _, c := range cases {
		c.typ.Commit()
		p := c.typ.Plan()
		if p == nil {
			t.Fatalf("%s: no plan", c.name)
		}
		if p.Kind() != c.want {
			t.Errorf("%s: plan kind %v, want %v", c.name, p.Kind(), c.want)
		}
		for count := 1; count <= 3; count++ {
			checkPlanAgainstReference(t, c.typ, count, 0)
		}
	}
}

func TestPlanSpillTypes(t *testing.T) {
	// trueLB > 0: the typemap's first byte sits past the declared bounds.
	// Such types must NOT lower to a zero-offset contiguous move (the PR 4
	// Contiguous regression) — the plan has to carry the displacement.
	cases := []struct {
		name string
		typ  *Type
	}{
		{"displaced block", MustResized(MustIndexed([]int{2}, []int{2}, Int), 0, 4)},
		{"subarray interior", MustSubarray([]int{8, 8}, []int{2, 3}, []int{3, 2}, Int)},
		{"displaced stride", MustResized(MustIndexedBlock(1, []int{1, 4}, Int), 0, 8)},
	}
	for _, c := range cases {
		c.typ.Commit()
		tlb, _ := c.typ.TrueBounds()
		if tlb <= 0 {
			t.Fatalf("%s: trueLB = %d, want > 0 (test fixture broken)", c.name, tlb)
		}
		if c.typ.Contiguous() {
			t.Errorf("%s: displaced type reports Contiguous", c.name)
		}
		for count := 1; count <= 4; count++ {
			checkPlanAgainstReference(t, c.typ, count, 3)
		}
	}
}

func TestPlanTiledTypes(t *testing.T) {
	// Shrink the caps so a small indexed type compiles tiled: the Offsets
	// kernel must walk the tiles in order, and above the tiled cap the plan
	// disappears entirely (streaming walk takes over).
	oldCompiled, oldTile, oldTiled := compiledBlockCap, tileBlocks, tiledBlockCap
	compiledBlockCap, tileBlocks, tiledBlockCap = 4, 3, 10
	defer func() { compiledBlockCap, tileBlocks, tiledBlockCap = oldCompiled, oldTile, oldTiled }()

	tiled := MustResized(MustIndexed([]int{1, 1, 1, 1, 1, 1}, []int{0, 2, 4, 6, 8, 10}, Int), 0, 48)
	tiled.Commit()
	p := tiled.Plan()
	if p == nil {
		t.Fatal("tiled type lost its plan")
	}
	if p.Kind() != plan.Offsets {
		t.Fatalf("tiled plan kind %v, want offsets", p.Kind())
	}
	if p.Regions() != 6 {
		t.Fatalf("tiled plan regions %d, want 6", p.Regions())
	}
	for count := 1; count <= 3; count++ {
		checkPlanAgainstReference(t, tiled, count, 1)
	}

	over := MustIndexedBlock(1, []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, Int)
	over.Commit()
	if over.Plan() != nil {
		t.Fatal("type above tiledBlockCap still has a plan")
	}
	// The streaming fallback must still pack correctly.
	checkCompiledAgainstRecursive(t, over, 2)
}
