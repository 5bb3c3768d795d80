package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
