package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spinddt/internal/ddt"
	"spinddt/internal/nic"
)

// TestVerifyReferenceCatchesCorruption exercises the in-place verifier
// directly: both a corrupted typemap region and a stray byte in a gap
// between regions must fail, exactly as the materialized reference compare
// would.
func TestVerifyReferenceCatchesCorruption(t *testing.T) {
	typ := ddt.MustVector(8, 2, 4, ddt.Int).Commit()
	count := 2
	_, hi := typ.Footprint(count)
	msg := typ.Size() * int64(count)

	packed := make([]byte, msg)
	fillPayload(7, packed)
	good := make([]byte, hi)
	if err := ddt.Unpack(typ, count, packed, good); err != nil {
		t.Fatal(err)
	}
	if err := verifyReference(typ, count, packed, good, hi); err != nil {
		t.Fatalf("clean buffer rejected: %v", err)
	}

	// Flip one byte inside the first region.
	region := append([]byte(nil), good...)
	region[0] ^= 0xff
	if err := verifyReference(typ, count, packed, region, hi); err == nil {
		t.Fatal("corrupted region accepted")
	}

	// Scribble into the hole between block 0 ([0,8)) and block 1 ([16,24)).
	gap := append([]byte(nil), good...)
	gap[10] = 0x5a
	if err := verifyReference(typ, count, packed, gap, hi); err == nil {
		t.Fatal("corrupted gap accepted")
	}
}

// TestVerifyReferenceInterleavedElements covers the fallback path: a
// resized type whose elements interleave (element 2's first region sits in
// the "gap" between element 1's regions) is non-monotone in typemap order,
// so the in-place walk must defer to the materialized reference instead of
// misreading legitimately-written gaps as corruption.
func TestVerifyReferenceInterleavedElements(t *testing.T) {
	typ := ddt.MustResized(ddt.MustVector(2, 1, 2, ddt.Int), 0, 4).Commit()
	count := 2
	_, hi := typ.Footprint(count) // regions: 0, 8 | 4, 12 — interleaved
	msg := typ.Size() * int64(count)

	packed := make([]byte, msg)
	fillPayload(3, packed)
	dst := make([]byte, hi)
	if err := ddt.Unpack(typ, count, packed, dst); err != nil {
		t.Fatal(err)
	}
	if err := verifyReference(typ, count, packed, dst, hi); err != nil {
		t.Fatalf("clean interleaved buffer rejected: %v", err)
	}
	dst[5] ^= 0xff
	if err := verifyReference(typ, count, packed, dst, hi); err == nil {
		t.Fatal("corrupted interleaved buffer accepted")
	}
}

// TestRunDeterministicWithPooledBuffers re-runs the same request through the
// recycled scratch buffers: results must be bit-identical and verified, and
// interleaving a different message size must not poison the pool.
func TestRunDeterministicWithPooledBuffers(t *testing.T) {
	big := ddt.MustVector(512, 16, 32, ddt.Int)
	small := ddt.MustVector(16, 4, 8, ddt.Int)

	first, err := Run(NewRequest(RWCP, big, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(NewRequest(Specialized, small, 3)); err != nil {
		t.Fatal(err)
	}
	second, err := Run(NewRequest(RWCP, big, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Verified || !second.Verified {
		t.Fatal("runs not verified")
	}
	if first.ProcTime != second.ProcTime || first.Gamma != second.Gamma ||
		first.NICBytes != second.NICBytes {
		t.Fatalf("pooled buffers broke determinism: %+v vs %+v", first, second)
	}
}

// TestVerifyFailureSurfacesStrategy keeps the error message actionable.
func TestVerifyFailureSurfacesStrategy(t *testing.T) {
	typ := ddt.MustVector(8, 2, 4, ddt.Int).Commit()
	_, hi := typ.Footprint(1)
	packed := make([]byte, typ.Size())
	fillPayload(1, packed)
	dst := make([]byte, hi) // left empty: nothing unpacked
	err := verifyReference(typ, 1, packed, dst, hi)
	if err == nil || !strings.Contains(err.Error(), "reference unpack") {
		t.Fatalf("err = %v", err)
	}
}

// TestQuickVerifyMatchesMaterialized is the differential test of the
// verify kernel: over random datatypes — trueLB>0 spill types, and
// resized types whose elements interleave — at counts 1-4, the verdict of
// verifyReference (the plan kernel where the layout is monotone) equals
// the materialized reference (ddt.Unpack into a zeroed buffer, compared
// with bytes.Equal) on the clean scatter, with one region byte flipped,
// with one gap byte set, and with one region shifted by a byte. A pooled
// buffer that verifies goes back all zero.
func TestQuickVerifyMatchesMaterialized(t *testing.T) {
	var spill, interleaved, kernel, rejected int
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := ddt.RandomType(rng, 3)
		if lo, _ := typ.TrueBounds(); lo < 0 {
			return true
		}
		if rng.Intn(4) == 0 {
			// A shorter extent than the element's span: elements interleave.
			_, thi := typ.TrueBounds()
			typ = ddt.MustResized(typ, 0, 1+rng.Int63n(thi))
		}
		typ.Commit()
		count := int(countRaw%4) + 1
		lo, hi := typ.Footprint(count)
		if lo < 0 {
			return true
		}
		if lo > 0 {
			spill++
		}
		if !typ.Plan().Monotone(count) {
			interleaved++
		} else {
			kernel++
		}
		packed := make([]byte, typ.Size()*int64(count))
		fillPayload(seed, packed)
		ref := make([]byte, hi)
		if err := ddt.Unpack(typ, count, packed, ref); err != nil {
			t.Fatal(err)
		}
		regions := typ.Flatten(count)
		covered := make([]bool, hi)
		for _, r := range regions {
			for i := r.Offset; i < r.Offset+r.Size; i++ {
				covered[i] = true
			}
		}
		var gaps []int64
		for i, c := range covered {
			if !c {
				gaps = append(gaps, int64(i))
			}
		}

		cases := map[string][]byte{"clean": ref}
		r := regions[rng.Intn(len(regions))]
		flip := bytes.Clone(ref)
		flip[r.Offset+rng.Int63n(r.Size)] ^= 0x10
		cases["flipped region byte"] = flip
		if len(gaps) > 0 {
			gap := bytes.Clone(ref)
			gap[gaps[rng.Intn(len(gaps))]] = 0xa5
			cases["gap byte"] = gap
		}
		shift := bytes.Clone(ref)
		if r.Offset+r.Size < hi {
			copy(shift[r.Offset+1:], ref[r.Offset:r.Offset+r.Size])
			shift[r.Offset] = 0
		} else if r.Offset > 0 {
			copy(shift[r.Offset-1:], ref[r.Offset:r.Offset+r.Size])
			shift[r.Offset+r.Size-1] = 0
		}
		cases["region shifted by a byte"] = shift

		for name, dst := range cases {
			want := bytes.Equal(dst, ref)
			err := verifyReference(typ, count, packed, bytes.Clone(dst), hi)
			if (err == nil) != want {
				t.Fatalf("%s, %s x%d: verifyReference = %v, reference equal = %v", name, typ.Name(), count, err, want)
			}
			if !want {
				rejected++
			}
			pooled := getZeroBuf(hi)
			copy(*pooled, dst)
			buf := *pooled
			if err := verifyRecv(typ, count, packed, buf, hi, pooled); (err == nil) != want {
				t.Fatalf("%s, %s x%d: verifyRecv = %v, reference equal = %v", name, typ.Name(), count, err, want)
			}
			if want && !bytes.Equal(buf[:cap(buf)], make([]byte, cap(buf))) {
				t.Fatalf("%s, %s x%d: a verified pooled buffer went back dirty", name, typ.Name(), count)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if spill == 0 || interleaved == 0 || kernel == 0 || rejected == 0 {
		t.Fatalf("draws too narrow: %d spill, %d interleaved, %d kernel, %d rejected", spill, interleaved, kernel, rejected)
	}
	t.Logf("%d kernel and %d fallback cases (%d trueLB>0), %d mutations rejected", kernel, interleaved, spill, rejected)
}

// skewBackend is MemBackend with one fault in its scatter: each message's
// first region lands one byte to the right, or, with gap set, the byte
// after it (a gap of the layouts used here) is written.
type skewBackend struct {
	MemBackend
	gap bool
}

func (b skewBackend) Exchange(env BackendEnv, sends []BackendSend, msgs []BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	sent, res, err := b.MemBackend.Exchange(env, sends, msgs)
	for _, m := range msgs {
		r := m.Type.Flatten(m.Count)[0]
		if b.gap {
			m.Dst[r.Offset+r.Size] = 1
		} else {
			copy(m.Dst[r.Offset+1:], m.Dst[r.Offset:r.Offset+r.Size])
			m.Dst[r.Offset] = 0
		}
	}
	return sent, res, err
}

// TestVerifyCatchesBackendSkew runs an in-process Post + Flush on a
// backend that misplaces one region by a byte or writes one gap byte:
// the flush must fail verification, through the kernel (a vector) and
// through the materialized fallback (an interleaved resized type).
func TestVerifyCatchesBackendSkew(t *testing.T) {
	types := map[string]*ddt.Type{
		"vector":      ddt.MustVector(8, 4, 8, ddt.Int),
		"interleaved": ddt.MustResized(ddt.MustVector(2, 1, 4, ddt.Int), 0, 8),
	}
	for name, typ := range types {
		for _, gap := range []bool{false, true} {
			cfg := NewSessionConfig()
			cfg.Backend = skewBackend{gap: gap}
			sess := NewSession(cfg)
			h, err := sess.CommitAs(typ, RWCP)
			if err != nil {
				t.Fatal(err)
			}
			ep := sess.Endpoint(EndpointConfig{})
			fut, err := ep.Post(h, 2, PostOpts{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := ep.Flush(); err == nil || !strings.Contains(err.Error(), "reference unpack") {
				t.Errorf("%s gap=%v: flush error %v, want a verification failure", name, gap, err)
			}
			if res, err := fut.Wait(); err == nil || res.Verified {
				t.Errorf("%s gap=%v: future verified=%v err=%v", name, gap, res.Verified, err)
			}
			sess.Close()
		}
	}
}
