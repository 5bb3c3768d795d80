package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/spin"
)

// This file pins the specialized handlers — the receive-side scatter that
// BuildOffload(Specialized, …) installs and the send-side gather that
// BuildTxOffload installs — to digests of every packet they process: the
// handler Result (picosecond runtime and breakdown) plus the exact DMA
// writes or reads it issued. The figure goldens round to microseconds and
// cannot see one block moving between two packets; these digests can.
//
// The digests live in testdata/spec_digests.txt. Refresh them with
// SPINDDT_WRITE_DIGESTS=1 only for an intentional change to the model.

const specDigestFile = "testdata/spec_digests.txt"

// specDigestCase is one committed layout driven through the handlers.
type specDigestCase struct {
	name  string
	typ   *ddt.Type
	count int
	// noNorm builds the receive handler with DisableNormalization; the
	// send side always normalizes, so such a case runs receive only.
	noNorm bool
}

func specDigestCases() []specDigestCase {
	elem8 := ddt.Elementary("e8", 8)
	spill := ddt.MustSubarray([]int{2}, []int{2}, []int{0},
		ddt.MustIndexed([]int{1}, []int{1}, ddt.MustContiguous(3, elem8)))
	displs := make([]int, 64)
	for i := range displs {
		displs[i] = 16 * i
	}
	iblock := ddt.MustIndexedBlock(8, displs, ddt.Int)
	return []specDigestCase{
		{name: "contiguous", typ: ddt.MustContiguous(1000, ddt.Double), count: 3},
		{name: "vector", typ: ddt.MustVector(1024, 3, 5, ddt.Int), count: 1},
		{name: "hvector", typ: ddt.MustHVector(300, 2, 40, ddt.Double), count: 2},
		{name: "indexed", typ: ddt.MustIndexed([]int{3, 1, 7, 2, 5, 1}, []int{0, 5, 9, 20, 30, 40}, ddt.Double), count: 200},
		{name: "struct", typ: ddt.MustStruct([]int{2, 1, 3}, []int64{0, 16, 40},
			[]*ddt.Type{ddt.Int, ddt.Double, ddt.Short}), count: 300},
		{name: "subarray", typ: ddt.MustSubarray([]int{40, 30}, []int{20, 10}, []int{5, 7}, ddt.Double), count: 2},
		{name: "spill", typ: spill, count: 200},
		{name: "fused-vector", typ: ddt.MustVector(16, 4, 6, ddt.Int), count: 100},
		{name: "indexedblock", typ: iblock, count: 4},
		{name: "indexedblock-nonorm", typ: iblock, count: 4, noNorm: true},
	}
}

// specDigestPkts are the packet sizes each layout is cut into: the MTU,
// plus sizes that split blocks mid-region.
func specDigestPkts() []int64 {
	return []int64{nic.DefaultConfig().Fabric.MTU, 300, 37}
}

// dmaLog records a handler's DMA traffic: the writes of a receive-side
// scatter (with their bytes) and the reads of a send-side gather (served
// from src).
type dmaLog struct {
	h   hash.Hash
	src []byte
}

func (l *dmaLog) Write(hostOff int64, data []byte) {
	fmt.Fprintf(l.h, "w %d %d ", hostOff, len(data))
	l.h.Write(data)
	l.h.Write([]byte{'\n'})
}

func (l *dmaLog) Read(hostOff int64, dst []byte) {
	copy(dst, l.src[hostOff:hostOff+int64(len(dst))])
	fmt.Fprintf(l.h, "r %d %d\n", hostOff, len(dst))
}

func specDigestParams(c specDigestCase) BuildParams {
	return BuildParams{
		Type: c.typ.Commit(), Count: c.count,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		DisableNormalization: c.noNorm,
	}
}

// shuffledPkts cuts a msg-byte stream into pkt-byte packets and returns
// their stream offsets in a seeded shuffled order.
func shuffledPkts(msg, pkt int64, seed int64) []int64 {
	var offs []int64
	for off := int64(0); off < msg; off += pkt {
		offs = append(offs, off)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	return offs
}

// recvDigest scatters the layout's packed stream through the specialized
// receive handler, packet by packet, and hashes every Result and write.
func recvDigest(t *testing.T, c specDigestCase, seed int64) string {
	t.Helper()
	p := specDigestParams(c)
	off, err := BuildOffload(Specialized, p)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer off.Release()
	msg := c.typ.Size() * int64(c.count)
	packed := payloadFor(seed, msg)
	log := &dmaLog{h: sha256.New()}
	fmt.Fprintf(log.h, "kind=%s nic=%d prep=%#v\n", off.SpecKind, off.Ctx.NICMemBytes, off.Prep)
	for pi, pkt := range specDigestPkts() {
		for i, so := range shuffledPkts(msg, pkt, seed+int64(pi)) {
			n := min(pkt, msg-so)
			res := off.Ctx.Payload(&spin.HandlerArgs{
				StreamOff: so, Payload: packed[so : so+n], PktBytes: n,
				MsgSize: msg, PktIndex: i, DMA: log,
			})
			fmt.Fprintf(log.h, "pkt %d+%d %#v\n", so, n, res)
		}
	}
	return hex.EncodeToString(log.h.Sum(nil))
}

// sendDigest gathers the layout's stream through the send-side gather
// handler, packet by packet, once functionally and once timing-only, and
// hashes every Result, read and produced payload byte.
func sendDigest(t *testing.T, c specDigestCase, seed int64) string {
	t.Helper()
	p := specDigestParams(c)
	tx, err := BuildTxOffload(p)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	msg := c.typ.Size() * int64(c.count)
	_, hi := c.typ.Footprint(c.count)
	log := &dmaLog{h: sha256.New(), src: payloadFor(seed, hi)}
	fmt.Fprintf(log.h, "kind=%s nic=%d blocks=%d prep=%#v\n", tx.Kind, tx.Ctx.NICMemBytes, tx.Blocks, tx.Prep)
	buf := make([]byte, msg)
	for pi, pkt := range specDigestPkts() {
		for i, so := range shuffledPkts(msg, pkt, seed+int64(pi)) {
			n := min(pkt, msg-so)
			a := spin.HandlerArgs{StreamOff: so, Payload: buf[so : so+n], PktBytes: n, MsgSize: msg, PktIndex: i, DMARead: log}
			res := tx.Ctx.Payload(&a)
			fmt.Fprintf(log.h, "pkt %d+%d %#v ", so, n, res)
			log.h.Write(buf[so : so+n])
			a.Payload = nil
			fmt.Fprintf(log.h, "\ntiming %#v\n", tx.Ctx.Payload(&a))
		}
	}
	return hex.EncodeToString(log.h.Sum(nil))
}

// specDigests runs every case in both directions and returns name→digest.
func specDigests(t *testing.T) map[string]string {
	got := make(map[string]string)
	for i, c := range specDigestCases() {
		seed := int64(i + 1)
		got["recv/"+c.name] = recvDigest(t, c, seed)
		if !c.noNorm {
			got["send/"+c.name] = sendDigest(t, c, seed)
		}
	}
	return got
}

// TestSpecializedHandlerDigests compares every case against the committed
// digests.
func TestSpecializedHandlerDigests(t *testing.T) {
	got := specDigests(t)
	if os.Getenv("SPINDDT_WRITE_DIGESTS") == "1" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(specDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", specDigestFile, line)
		}
		want[name] = sum
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the matrix has %d cases", specDigestFile, len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: digest %s, recorded %s", name, sum, want[name])
		}
	}
}

// hostMem is a DMA double over one host buffer that never allocates: it
// serves a scatter handler's writes and a gather handler's reads.
type hostMem struct{ b []byte }

func (m *hostMem) Write(hostOff int64, data []byte) { copy(m.b[hostOff:], data) }
func (m *hostMem) Read(hostOff int64, dst []byte)   { copy(dst, m.b[hostOff:]) }

// TestSpecializedHandlersDoNotAllocate guards the handlers' hot path: the
// receive-side scatter and the send-side gather hand the DMA engines
// straight to the shared resolver, with no per-call adapter, for both the
// arithmetic and the list resolver.
func TestSpecializedHandlersDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cases := []struct {
		kind  string
		typ   *ddt.Type
		count int
	}{
		{"vector", ddt.MustVector(64, 3, 5, ddt.Int), 2},
		{"list", ddt.MustIndexed([]int{3, 1, 7, 2}, []int{0, 5, 9, 20}, ddt.Double), 16},
	}
	for _, c := range cases {
		p := specDigestParams(specDigestCase{typ: c.typ, count: c.count})
		rx, err := BuildOffload(Specialized, p)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := BuildTxOffload(p)
		if err != nil {
			t.Fatal(err)
		}
		if rx.SpecKind != c.kind || tx.Kind != c.kind {
			t.Fatalf("%s layout built receive %q, send %q", c.kind, rx.SpecKind, tx.Kind)
		}
		_, hi := c.typ.Footprint(c.count)
		mem := &hostMem{b: make([]byte, hi)}
		pkt := make([]byte, 300)
		scatter := spin.HandlerArgs{StreamOff: 100, Payload: pkt, PktBytes: 300, DMA: mem}
		gather := spin.HandlerArgs{StreamOff: 100, Payload: pkt, PktBytes: 300, DMARead: mem}
		if n := testing.AllocsPerRun(100, func() { rx.Ctx.Payload(&scatter) }); n != 0 {
			t.Errorf("%s receive scatter: %v allocs per call, want 0", c.kind, n)
		}
		if n := testing.AllocsPerRun(100, func() { tx.Ctx.Payload(&gather) }); n != 0 {
			t.Errorf("%s send gather: %v allocs per call, want 0", c.kind, n)
		}
		rx.Release()
	}
}
