package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/server"
)

// corpusRequests returns the seed shapes the request-decoder fuzzing
// starts from: one well-formed request of every kind, with flat and
// nested datatypes on commit, plus the classic malformed edges.
func corpusRequests() []*server.Request {
	typ := ddt.MustVector(16, 4, 8, ddt.Int)
	return []*server.Request{
		{Kind: server.ReqOpen},
		{Kind: server.ReqCommit, Strategy: uint8(core.RWCP), Type: typ},
		{Kind: server.ReqCommit, Strategy: server.StrategyAuto, Type: ddt.MustContiguous(128, ddt.Double)},
		{Kind: server.ReqCommit, Strategy: uint8(core.Specialized), Type: ddt.MustVector(3, 1, 2, ddt.MustVector(4, 2, 3, ddt.Char))},
		{Kind: server.ReqPost, Handle: 3, Count: 2, Seed: 42},
		{Kind: server.ReqPost, Handle: 3, Count: 2, Packed: bytes.Repeat([]byte{0xA5}, 128)},
		{Kind: server.ReqSend, Handle: 1, Count: 7, Seed: -1},
		{Kind: server.ReqFlush},
		{Kind: server.ReqFree, Handle: 9},
		{Kind: server.ReqClose},
		{Kind: server.ReqStats},
	}
}

// corpusResponses returns the seed shapes for the response decoder.
func corpusResponses() []*server.Response {
	return []*server.Response{
		{Kind: server.ReqOpen, Value: 7},
		{Kind: server.ReqCommit, Value: 1},
		{Kind: server.ReqFlush, Futures: []server.FutureStatus{
			{ID: 1, Status: server.StatusOK, Verified: true, Bytes: 1 << 20},
			{ID: 2, Status: server.StatusMsgTimeout},
			{ID: 3, Status: server.StatusMsgFailed, Bytes: 512},
		}},
		{Kind: server.ReqPost, Status: server.StatusByteBudget, Detail: "1024 pending + 4096 requested > 4096 budget"},
		{Kind: server.ReqOpen, Status: server.StatusSessionLimit, Detail: "4096 sessions open"},
		{Kind: server.ReqCommit, Status: server.StatusDuplicateCommit, Detail: "committed as handle 2"},
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/ when SPINDDT_WRITE_CORPUS=1 — the same env-gated
// refresh idiom the transport package uses. The corpus gives a plain
// `go test` fuzz-seed coverage of every request/response shape without
// a -fuzz run.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SPINDDT_WRITE_CORPUS") != "1" {
		t.Skip("set SPINDDT_WRITE_CORPUS=1 to refresh testdata/fuzz")
	}
	write := func(target string, inputs [][2][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", in[0], in[1])
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	var reqs [][2][]byte
	for _, r := range corpusRequests() {
		hdr, payload := server.EncodeRequest(r)
		reqs = append(reqs, [2][]byte{hdr, payload})
	}
	// Malformed edges: truncated header, bad version, reserved byte set,
	// unknown kind, payload on a payload-less kind, truncated datatype.
	good, _ := server.EncodeRequest(&server.Request{Kind: server.ReqOpen})
	badVersion := append([]byte(nil), good...)
	badVersion[0] = 9
	badReserved := append([]byte(nil), good...)
	badReserved[3] = 1
	badKind := append([]byte(nil), good...)
	badKind[1] = 0xEE
	commitHdr, commitPayload := server.EncodeRequest(&server.Request{
		Kind: server.ReqCommit, Strategy: server.StrategyAuto, Type: ddt.MustVector(16, 4, 8, ddt.Int),
	})
	reqs = append(reqs,
		[2][]byte{good[:8], nil},
		[2][]byte{badVersion, nil},
		[2][]byte{badReserved, nil},
		[2][]byte{badKind, nil},
		[2][]byte{good, []byte("stray")},
		[2][]byte{commitHdr, commitPayload[:len(commitPayload)/2]},
	)
	write("FuzzRequestDecode", reqs)

	var resps [][2][]byte
	for _, r := range corpusResponses() {
		hdr, payload := server.EncodeResponse(r)
		resps = append(resps, [2][]byte{hdr, payload})
	}
	okFlush, okRecords := server.EncodeResponse(corpusResponses()[2])
	resps = append(resps,
		[2][]byte{okFlush[:4], nil},
		[2][]byte{okFlush, okRecords[:len(okRecords)-1]},
	)
	write("FuzzResponseDecode", resps)
}

// FuzzRequestDecode hammers the request decoder with arbitrary header
// and payload bytes. The invariant is total robustness plus a lossless
// round trip: any accepted request re-encodes to the exact bytes that
// produced it.
func FuzzRequestDecode(f *testing.F) {
	for _, r := range corpusRequests() {
		hdr, payload := server.EncodeRequest(r)
		f.Add(hdr, payload)
	}
	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		req, err := server.DecodeRequest(hdr, payload)
		if err != nil {
			return
		}
		hdr2, payload2 := server.EncodeRequest(req)
		if !bytes.Equal(hdr2, hdr) {
			t.Fatalf("header round trip: %x -> %x", hdr, hdr2)
		}
		if !bytes.Equal(payload2, payload) {
			t.Fatalf("payload round trip: %d bytes -> %d bytes", len(payload), len(payload2))
		}
		if _, err := server.DecodeRequest(hdr2, payload2); err != nil {
			t.Fatalf("re-decode of accepted request: %v", err)
		}
	})
}

// FuzzResponseDecode is the same robustness + lossless-round-trip
// property for the response decoder.
func FuzzResponseDecode(f *testing.F) {
	for _, r := range corpusResponses() {
		hdr, payload := server.EncodeResponse(r)
		f.Add(hdr, payload)
	}
	f.Fuzz(func(t *testing.T, hdr, payload []byte) {
		resp, err := server.DecodeResponse(hdr, payload)
		if err != nil {
			return
		}
		hdr2, payload2 := server.EncodeResponse(resp)
		if !bytes.Equal(hdr2, hdr) {
			t.Fatalf("header round trip: %x -> %x", hdr, hdr2)
		}
		if !bytes.Equal(payload2, payload) {
			t.Fatalf("payload round trip: %d bytes -> %d bytes", len(payload), len(payload2))
		}
		if _, err := server.DecodeResponse(hdr2, payload2); err != nil {
			t.Fatalf("re-decode of accepted response: %v", err)
		}
	})
}
