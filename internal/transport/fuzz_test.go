package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spinddt/internal/ddt"
)

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/ when SPINDDT_WRITE_CORPUS=1 (the same env-gated refresh
// idiom as `make golden`). The corpus gives `go test` fuzz-seed coverage
// of the interesting decoder shapes without a -fuzz run.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SPINDDT_WRITE_CORPUS") != "1" {
		t.Skip("set SPINDDT_WRITE_CORPUS=1 to refresh testdata/fuzz")
	}
	write := func(target string, inputs [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", in)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	badsum := AppendFrame(nil, &Frame{Type: FrameData, Session: 1, Message: 2, Seq: 3, Payload: []byte("corpus")})
	badsum[24] ^= 0xff
	write("FuzzFrameDecode", [][]byte{
		AppendFrame(nil, &Frame{Type: FrameData, Session: 1, Message: 2, Seq: 3, Aux: 4, Payload: []byte("corpus")}),
		AppendFrame(nil, &Frame{Type: FrameAck, Session: 0xdeadbeef, Message: 1, Seq: 7, Aux: 0xffffffff}),
		AppendFrame(nil, &Frame{Type: FrameData, Payload: make([]byte, MaxPayloadSize)}),
		AppendFrame(nil, &Frame{Type: FrameData}),
		badsum,
		{},
		make([]byte, HeaderSize),
		AppendFrame(nil, &Frame{Type: FrameData, AckReq: true, Session: 1, Message: 2, Seq: 7, Aux: 46, Payload: []byte("ack me")}),
		AppendFrame(nil, &Frame{Type: FrameAck, AckReq: true, Session: 1, Message: 2, Seq: 8}), // non-canonical
	})

	nested := ddt.MustVector(3, 1, 2, ddt.MustVector(4, 2, 3, ddt.Char))
	truncated := EncodeWireMeta(WireMeta{Type: ddt.MustVector(16, 4, 8, ddt.Int), Count: 2})
	write("FuzzBlockProgramDecode", [][]byte{
		EncodeWireMeta(WireMeta{Offset: 0}),
		EncodeWireMeta(WireMeta{Offset: 1 << 20}),
		EncodeWireMeta(WireMeta{Type: ddt.MustVector(16, 4, 8, ddt.Int), Count: 2}),
		EncodeWireMeta(WireMeta{Type: ddt.MustContiguous(128, ddt.Double), Count: 1}),
		EncodeWireMeta(WireMeta{Type: nested, Count: 5}),
		truncated[:len(truncated)/2],
		{0x7f, 0, 0},
	})
}

// FuzzFrameDecode hammers the datagram decoder with arbitrary bytes. The
// invariant is total robustness: DecodeFrame either rejects the input or
// returns a frame that re-encodes to the exact same datagram — no panics,
// no out-of-range slicing, no frame accepted that the encoder could not
// have produced.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Type: FrameData, Session: 1, Message: 2, Seq: 3, Aux: 4, Payload: []byte("seed")}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameAck, Session: 9, Seq: 100, Aux: 0xffffffff}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameData, Payload: make([]byte, MaxPayloadSize)}))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add(AppendFrame(nil, &Frame{Type: FrameData, AckReq: true, Seq: 7, Aux: 8, Payload: []byte("ack me")}))
	// The ack-request bit on an ack is non-canonical: the decoder must
	// reject it.
	f.Add(AppendFrame(nil, &Frame{Type: FrameAck, AckReq: true, Seq: 8}))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		fr, err := DecodeFrame(pkt)
		if err != nil {
			return
		}
		re := AppendFrame(nil, &fr)
		if !bytes.Equal(re, pkt) {
			t.Fatalf("accepted frame does not round-trip: %x vs %x", re, pkt)
		}
	})
}

// FuzzBlockProgramDecode fuzzes the exchange-format header decoder — the
// path that turns received wire bytes into a committed block program. A
// decoded header must survive the ddt constructors (DecodeWireMeta
// rebuilds the type through them) and re-encode to an equivalent header.
func FuzzBlockProgramDecode(f *testing.F) {
	f.Add(EncodeWireMeta(WireMeta{Offset: 4096}))
	f.Add(EncodeWireMeta(WireMeta{Type: ddt.MustVector(8, 2, 4, ddt.Double), Count: 3}))
	f.Add(EncodeWireMeta(WireMeta{Type: ddt.MustContiguous(64, ddt.Char), Count: 1}))
	f.Add(EncodeWireMeta(WireMeta{
		Type:  ddt.MustVector(4, 1, 3, ddt.MustContiguous(2, ddt.Int)),
		Count: 2,
	}))
	f.Add([]byte{metaKindBlockProgram})
	f.Add([]byte{metaKindContiguous, 1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeWireMeta(buf)
		if err != nil {
			return
		}
		if m.Type == nil {
			if m.Offset < 0 {
				t.Fatalf("accepted negative offset %d", m.Offset)
			}
			return
		}
		if m.Count <= 0 {
			t.Fatalf("accepted non-positive count %d", m.Count)
		}
		m2, err := DecodeWireMeta(EncodeWireMeta(m))
		if err != nil {
			t.Fatalf("re-encoded meta rejected: %v", err)
		}
		if m2.Count != m.Count || !ddt.TypemapEqual(m2.Type, m.Type) {
			t.Fatal("meta does not round-trip")
		}
	})
}
