package ddt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripBasics(t *testing.T) {
	hindexed, err := NewHIndexed([]int{1, 2}, []int64{0, 13}, Int) // unaligned byte displacement
	if err != nil {
		t.Fatal(err)
	}
	types := []*Type{
		Int,
		MustContiguous(8, Double),
		MustVector(16, 2, 4, Int),
		MustHVector(3, 1, -8, Int), // negative stride, negative lb
		MustIndexed([]int{1, 2, 1}, []int{0, 3, 9}, Float),
		MustIndexedBlock(2, []int{0, 4, 11}, Short),
		MustStruct([]int{2, 1}, []int64{0, 24}, []*Type{Int, Double}),
		MustSubarray([]int{4, 5, 3}, []int{2, 3, 2}, []int{1, 1, 0}, Long),
		MustResized(MustVector(4, 1, 2, Int), 0, 64),
		hindexed,
	}
	for i, typ := range types {
		enc := Encode(typ)
		if int64(len(enc)) != EncodedSize(typ) {
			t.Fatalf("type %d: EncodedSize mismatch", i)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("type %d: decode: %v", i, err)
		}
		if !TypemapEqual(typ, dec) {
			t.Fatalf("type %d: typemap changed\nin:  %s\nout: %s",
				i, typ.Describe(), dec.Describe())
		}
		if typ.Signature() != dec.Signature() {
			t.Fatalf("type %d: signature changed: %s -> %s",
				i, typ.Signature(), dec.Signature())
		}
	}
}

func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := RandomType(rng, 4)
		dec, err := Decode(Encode(typ))
		return err == nil && TypemapEqual(typ, dec) && typ.Signature() == dec.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer decoded")
	}
	enc := Encode(MustVector(4, 1, 2, Int))
	// Bad magic.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic decoded")
	}
	// Truncations at every prefix must fail, never panic.
	for n := 4; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation at %d decoded", n)
		}
	}
	// Trailing bytes rejected.
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecRejectsBitFlips(t *testing.T) {
	// Single-byte corruptions either fail to decode or still yield a
	// structurally valid type (constructors re-validate); they must never
	// panic. Metadata cross-checks catch size/extent tampering.
	enc := Encode(MustStruct([]int{2, 1}, []int64{0, 24}, []*Type{Int, Double}))
	for i := 4; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		dec, err := Decode(mut)
		if err == nil && dec == nil {
			t.Fatalf("flip at %d: nil type without error", i)
		}
	}
}

func TestCodecDepthLimit(t *testing.T) {
	typ := (*Type)(Int)
	for i := 0; i < 70; i++ {
		typ = MustContiguous(1, typ)
	}
	if _, err := Decode(Encode(typ)); err == nil {
		t.Fatal("over-deep encoding decoded")
	}
}
