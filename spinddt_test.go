package spinddt_test

import (
	"bytes"
	"testing"

	"spinddt"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// A column of an 8x8 int matrix.
	col, err := spinddt.Vector(8, 1, 8, spinddt.Int)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 8*8*4)
	for i := range src {
		src[i] = byte(i)
	}
	packed, err := spinddt.Pack(col, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != 32 {
		t.Fatalf("packed %d bytes", len(packed))
	}
	dst := make([]byte, len(src))
	if err := spinddt.Unpack(col, 1, packed, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		off := i * 8 * 4
		if !bytes.Equal(dst[off:off+4], src[off:off+4]) {
			t.Fatalf("column element %d differs", i)
		}
	}
}

func TestPublicAPIConstructors(t *testing.T) {
	if _, err := spinddt.Contiguous(4, spinddt.Double); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.HVector(2, 1, 64, spinddt.Float); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.Indexed([]int{1, 2}, []int{0, 4}, spinddt.Int); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.IndexedBlock(2, []int{0, 8}, spinddt.Int); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.Struct([]int{1}, []int64{0}, []*spinddt.Datatype{spinddt.Long}); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.Subarray([]int{4, 4}, []int{2, 2}, []int{1, 1}, spinddt.Byte); err != nil {
		t.Fatal(err)
	}
	if _, err := spinddt.Resized(spinddt.Int, 0, 16); err != nil {
		t.Fatal(err)
	}
	if e := spinddt.Elementary("half", 2); e.Size() != 2 {
		t.Fatal("elementary")
	}
}

func TestPublicAPIRun(t *testing.T) {
	typ, err := spinddt.Vector(4096, 16, 32, spinddt.Int)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spinddt.AllStrategies {
		res, err := spinddt.Run(spinddt.NewRequest(s, typ, 1))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.Verified || res.ProcTime <= 0 {
			t.Fatalf("%v: %+v", s, res)
		}
	}
}

func TestPublicAPINormalize(t *testing.T) {
	nested, err := spinddt.Contiguous(4, mustContig(t, 8, spinddt.Int))
	if err != nil {
		t.Fatal(err)
	}
	norm := spinddt.Normalize(nested)
	if norm.Size() != nested.Size() {
		t.Fatal("normalization changed size")
	}
}

func mustContig(t *testing.T, n int, base *spinddt.Datatype) *spinddt.Datatype {
	t.Helper()
	c, err := spinddt.Contiguous(n, base)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicAPISend(t *testing.T) {
	typ, err := spinddt.Vector(4096, 16, 32, spinddt.Int)
	if err != nil {
		t.Fatal(err)
	}
	var results []spinddt.SendResult
	for _, s := range []spinddt.SendStrategy{spinddt.PackSend, spinddt.StreamingPuts, spinddt.OutboundSpin} {
		res, err := spinddt.RunSend(spinddt.NewSendRequest(s, typ, 1))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Injected <= 0 {
			t.Fatalf("%v: nothing injected", s)
		}
		results = append(results, res)
	}
	// Fig. 4's qualitative ordering of sender CPU involvement.
	if results[2].CPUBusy != 0 {
		t.Fatal("outbound sPIN must not busy the CPU")
	}
	if results[0].CPUBusy <= results[1].CPUBusy {
		t.Fatal("packing must busy the CPU more than streaming")
	}
}

func TestDefaultsExposed(t *testing.T) {
	if spinddt.DefaultNICConfig().HPUs != 16 {
		t.Fatal("default HPUs")
	}
	if spinddt.DefaultCostModel().SpecInit <= 0 {
		t.Fatal("cost model")
	}
	if spinddt.DefaultHostConfig().CopyBandwidth <= 0 {
		t.Fatal("host config")
	}
	if len(spinddt.OffloadStrategies) != 4 || len(spinddt.AllStrategies) != 6 {
		t.Fatal("strategy lists")
	}
}
