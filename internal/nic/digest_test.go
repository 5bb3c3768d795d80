package nic

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// This file pins every one-NIC topology — receive batches, send batches,
// coupled transfers and the one-message conveniences — to digests of its
// exact results; cluster_digest_test.go adds the sharded cluster runs of
// ddtbench's "Sharded cluster" table. The figure goldens round to microseconds, so a sub-µs
// tie-break drift in the device model would pass them; a digest over the
// full picosecond results plus every destination byte cannot.
//
// The digests live in testdata/topology_digests.txt. Refresh them with
// SPINDDT_WRITE_DIGESTS=1 only for an intentional model change.

const digestFile = "testdata/topology_digests.txt"

// digestCase is one fixed run of the matrix: run executes it with the
// given executor width and returns every result it produced plus the bytes
// it delivered.
type digestCase struct {
	name string
	run  func(t *testing.T, workers int) (results []any, bufs [][]byte)
}

// digestOf hashes results and buffers. Results are printed with %#v, not
// %+v: sim.Time's String method rounds, and the point of the digest is to
// see every picosecond.
func digestOf(results []any, bufs [][]byte) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%#v\n", r)
	}
	for _, b := range bufs {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCfg is the NIC of every digest run: the paper's defaults with the
// DMA depth series on, so the digests pin the Fig. 15 samples too.
func digestCfg() Config {
	cfg := DefaultConfig()
	cfg.CollectDMASeries = true
	return cfg
}

// digestSizes are the messages of a batch: odd tails, distinct packet
// counts.
var digestSizes = []int{7*2048 + 311, 5 * 2048, 9*2048 + 17}

// stridedGatherCtx is a functional gather of a block-strided source: the
// stream block at offset p comes from source offset 2p, one DMA read per
// block, with a runtime growing per block. With a nil payload it runs
// timing-only.
func stridedGatherCtx(base sim.Time, block int64) *spin.ExecutionContext {
	return &spin.ExecutionContext{
		Name: "test-gather-strided",
		Payload: func(a *spin.HandlerArgs) spin.Result {
			var blocks int64
			for off := int64(0); off < a.PktBytes; off += block {
				n := min(block, a.PktBytes-off)
				var dst []byte
				if a.Payload != nil {
					dst = a.Payload[off : off+n]
				}
				a.DMARead.Read(2*(a.StreamOff+off), dst)
				blocks++
			}
			return spin.Result{Runtime: base + sim.Time(blocks)*20*sim.Nanosecond}
		},
	}
}

// stridedWire returns the n-byte wire stream stridedGatherCtx produces
// from src.
func stridedWire(src []byte, n, block int) []byte {
	wire := make([]byte, n)
	for j := range wire {
		wire[j] = src[j+j/block*block]
	}
	return wire
}

// scatterME returns a match entry for bits that either scatters through a
// passthrough handler (with a completion handler on odd bits) or, for
// rdma, lands the stream at offset 64 through the non-processing path.
func scatterME(bits portals.MatchBits, n int, rdma bool) *portals.ME {
	me := &portals.ME{Match: bits, UseOnce: true}
	if rdma {
		me.Region = portals.HostRegion{Offset: 64, Length: int64(n)}
		return me
	}
	ctx := passthroughCtx(sim.Time(300+100*int(bits))*sim.Nanosecond, spin.Policy{DeltaP: 2})
	ctx.NICMemBytes = 4096
	if bits%2 == 1 {
		ctx.Completion = func(*spin.HandlerArgs) spin.Result {
			return spin.Result{Runtime: 15 * sim.Nanosecond}
		}
	}
	me.Ctx = ctx
	return me
}

// digestPT returns an empty portal table.
func digestPT() *portals.PT {
	pt, err := portals.NewNI(1).PT(0)
	if err != nil {
		panic(err)
	}
	return pt
}

// recvBatchCase builds a three-message receive batch on one portal table:
// spin handlers or the RDMA path; in-order, reordered or explicit
// arrivals; starts 1 µs apart (overlapping) or 1 ms apart (disjoint).
func recvBatchCase(rdma bool, arrival string, overlap bool) func(*testing.T, int) ([]any, [][]byte) {
	return func(t *testing.T, workers int) ([]any, [][]byte) {
		cfg := digestCfg()
		pt := digestPT()
		gap := sim.Millisecond
		if overlap {
			gap = sim.Microsecond
		}
		msgs := make([]BatchMessage, len(digestSizes))
		bufs := make([][]byte, len(digestSizes))
		for i, n := range digestSizes {
			bits := portals.MatchBits(i + 1)
			if err := pt.Append(portals.PriorityList, scatterME(bits, n, rdma)); err != nil {
				t.Fatal(err)
			}
			bufs[i] = make([]byte, n+64)
			m := BatchMessage{PT: pt, Bits: bits, Packed: randPacked(n, int64(40+i)), Host: bufs[i], Start: sim.Time(i) * gap}
			switch arrival {
			case "reordered":
				m.Order = fabric.ReorderWindow(cfg.Fabric.NumPackets(int64(n)), 3, rand.New(rand.NewSource(int64(i+1))))
			case "explicit":
				// A sender slowing down quadratically: header first,
				// completion last, every gap wider than the wire's.
				arr, err := cfg.Fabric.AppendSchedule(nil, int64(n), m.Start, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k := range arr {
					arr[k].At += sim.Time(k*k) * 13 * sim.Nanosecond
				}
				m.Arrivals = arr
			}
			msgs[i] = m
		}
		res, err := recvTopology(cfg, msgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		return anys(res), bufs
	}
}

// streamingMsg returns a streaming-puts message over 256-byte regions.
func streamingMsg(t *testing.T, cfg Config, bytes int64, start sim.Time) TxMessage {
	var regions []IovecRegion
	for off := int64(0); off < bytes; off += 256 {
		regions = append(regions, IovecRegion{Offset: 2 * off, Size: min(256, bytes-off)})
	}
	ready, cpu, n, err := StreamingSchedule(cfg, regions, 25*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return TxMessage{Kind: TxStreaming, MsgBytes: n, Start: start, ReadyAt: ready, CPUTime: cpu, Regions: int64(len(regions))}
}

// sendBatchContended runs all three send kinds against one outbound
// device, their starts overlapping; the gather is functional.
func sendBatchContended(t *testing.T, workers int) ([]any, [][]byte) {
	cfg := digestCfg()
	const gathered = 48<<10 + 100
	src := randPacked(2*gathered, 31)
	wire := make([]byte, gathered)
	msgs := []TxMessage{
		{Kind: TxProcessPut, MsgBytes: gathered, Ctx: stridedGatherCtx(300*sim.Nanosecond, 256), Src: src, Packed: wire},
		{Kind: TxPacked, MsgBytes: 32<<10 + 5, PackTime: 6 * sim.Microsecond, Start: 500 * sim.Nanosecond},
		streamingMsg(t, cfg, 40<<10+77, sim.Microsecond),
	}
	res, err := sendTopology(cfg, msgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return anys(res), [][]byte{wire}
}

// sendBatchSharedContext runs two gathers of one resident context, the
// first functional and the second timing-only.
func sendBatchSharedContext(t *testing.T, workers int) ([]any, [][]byte) {
	cfg := digestCfg()
	ctx := stridedGatherCtx(450*sim.Nanosecond, 512)
	ctx.NICMemBytes = cfg.NICMemBytes / 3
	src := randPacked(2*(64<<10), 32)
	wire := make([]byte, 64<<10)
	msgs := []TxMessage{
		{Kind: TxProcessPut, MsgBytes: 64 << 10, Ctx: ctx, Src: src, Packed: wire},
		{Kind: TxProcessPut, MsgBytes: 20<<10 + 9, Ctx: ctx, Start: 2 * sim.Microsecond},
	}
	res, err := sendTopology(cfg, msgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return anys(res), [][]byte{wire}
}

// coupledGathered runs two gathered transfers: the receives scatter the
// stream the send-side handlers produce.
func coupledGathered(t *testing.T, workers int) ([]any, [][]byte) {
	cfg := digestCfg()
	pt := digestPT()
	sizes := []int{40<<10 + 33, 24 << 10}
	gather := stridedGatherCtx(350*sim.Nanosecond, 128)
	var txs []TxMessage
	var rxs []BatchMessage
	var bufs [][]byte
	for i, n := range sizes {
		bits := portals.MatchBits(i + 1)
		if err := pt.Append(portals.PriorityList, scatterME(bits, n, false)); err != nil {
			t.Fatal(err)
		}
		wire := make([]byte, n)
		host := make([]byte, n+64)
		txs = append(txs, TxMessage{Kind: TxProcessPut, MsgBytes: int64(n), Ctx: gather,
			Src: randPacked(2*n, int64(50+i)), Packed: wire, Start: sim.Time(i) * 3 * sim.Microsecond})
		rxs = append(rxs, BatchMessage{PT: pt, Bits: bits, Packed: wire, Host: host})
		bufs = append(bufs, wire, host)
	}
	sends, recvs, err := coupledTopology(cfg, txs, rxs, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if want := stridedWire(txs[i].Src, n, 128); string(want) != string(bufs[2*i]) {
			t.Fatalf("transfer %d: gathered wire stream differs from the strided source", i)
		}
	}
	return append(anys(sends), anys(recvs)...), bufs
}

// coupledPacked runs a pack+send into the RDMA path and a streaming-puts
// send into a spin scatter, both pre-packed.
func coupledPacked(t *testing.T, workers int) ([]any, [][]byte) {
	cfg := digestCfg()
	pt := digestPT()
	packedA := randPacked(32<<10+7, 61)
	stream := streamingMsg(t, cfg, 28<<10+3, sim.Microsecond)
	packedB := randPacked(int(stream.MsgBytes), 62)
	stream.Packed = packedB
	hostA := make([]byte, len(packedA)+64)
	hostB := make([]byte, len(packedB)+64)
	for i, me := range []*portals.ME{scatterME(1, len(packedA), true), scatterME(2, len(packedB), false)} {
		if err := pt.Append(portals.PriorityList, me); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	txs := []TxMessage{
		{Kind: TxPacked, MsgBytes: int64(len(packedA)), PackTime: 9 * sim.Microsecond, Packed: packedA},
		stream,
	}
	rxs := []BatchMessage{
		{PT: pt, Bits: 1, Packed: packedA, Host: hostA},
		{PT: pt, Bits: 2, Packed: packedB, Host: hostB},
	}
	sends, recvs, err := coupledTopology(cfg, txs, rxs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return append(anys(sends), anys(recvs)...), [][]byte{hostA, hostB}
}

// receiveOneCase runs the one-message Receive convenience.
func receiveOneCase(rdma bool, reorder int) func(*testing.T, int) ([]any, [][]byte) {
	return func(t *testing.T, _ int) ([]any, [][]byte) {
		cfg := digestCfg()
		const n = 11*2048 + 5
		pt := digestPT()
		if err := pt.Append(portals.PriorityList, scatterME(3, n, rdma)); err != nil {
			t.Fatal(err)
		}
		var order []int
		if reorder > 0 {
			order = fabric.ReorderWindow(cfg.Fabric.NumPackets(n), reorder, rand.New(rand.NewSource(9)))
		}
		host := make([]byte, n+64)
		res, err := Receive(cfg, pt, 3, randPacked(n, 70), host, order)
		if err != nil {
			t.Fatal(err)
		}
		return []any{res}, [][]byte{host}
	}
}

// sendPackedOne, sendStreamingOne and sendProcessPutOne run the three
// Fig. 4 send conveniences.
func sendPackedOne(t *testing.T, _ int) ([]any, [][]byte) {
	res, err := SendPacked(digestCfg(), 1<<20+3, 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return []any{res}, nil
}

func sendStreamingOne(t *testing.T, _ int) ([]any, [][]byte) {
	var regions []IovecRegion
	for off := int64(0); off < 96<<10; off += 192 {
		regions = append(regions, IovecRegion{Offset: 3 * off, Size: 192})
	}
	res, err := SendStreaming(digestCfg(), regions, 30*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return []any{res}, nil
}

func sendProcessPutOne(t *testing.T, _ int) ([]any, [][]byte) {
	res, err := SendProcessPut(digestCfg(), 300<<10+1, func(a *spin.HandlerArgs) spin.Result {
		return spin.Result{Runtime: 200*sim.Nanosecond + sim.Time(a.PktBytes)*100 + sim.Time(a.PktIndex%3)*sim.Nanosecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	return []any{res}, nil
}

// digestCases is the fixed equivalence matrix.
func digestCases() []digestCase {
	var cases []digestCase
	for _, rdma := range []bool{false, true} {
		path := "spin"
		if rdma {
			path = "rdma"
		}
		for _, arrival := range []string{"inorder", "reordered", "explicit"} {
			for _, overlap := range []bool{true, false} {
				timing := "disjoint"
				if overlap {
					timing = "overlap"
				}
				cases = append(cases, digestCase{
					name: fmt.Sprintf("recv-batch/%s/%s/%s", path, arrival, timing),
					run:  recvBatchCase(rdma, arrival, overlap),
				})
			}
		}
	}
	cases = append(cases,
		digestCase{"send-batch/contended", sendBatchContended},
		digestCase{"send-batch/shared-context", sendBatchSharedContext},
		digestCase{"coupled/gathered", coupledGathered},
		digestCase{"coupled/packed", coupledPacked},
		digestCase{"receive/spin", receiveOneCase(false, 0)},
		digestCase{"receive/rdma-reordered", receiveOneCase(true, 4)},
		digestCase{"send/packed", sendPackedOne},
		digestCase{"send/streaming", sendStreamingOne},
		digestCase{"send/processput", sendProcessPutOne},
	)
	return append(cases, externalDigestCases...)
}

// anys converts a result slice for digestOf.
func anys[T any](rs []T) []any {
	out := make([]any, len(rs))
	for i := range rs {
		out[i] = rs[i]
	}
	return out
}

// TestTopologyDigests runs the matrix at executor widths 1 and 4 and
// compares every run against the committed digests.
func TestTopologyDigests(t *testing.T) {
	cases := digestCases()
	if os.Getenv("SPINDDT_WRITE_DIGESTS") == "1" {
		var b strings.Builder
		for _, c := range cases {
			res, bufs := c.run(t, 1)
			fmt.Fprintf(&b, "%s %s\n", c.name, digestOf(res, bufs))
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d digests, the matrix has %d cases", digestFile, len(want), len(cases))
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			res, bufs := c.run(t, workers)
			if got := digestOf(res, bufs); got != want[c.name] {
				t.Errorf("%s (workers=%d): digest %s, recorded %s", c.name, workers, got, want[c.name])
			}
		}
	}
}

// readDigests parses the committed "name digest" lines.
func readDigests(t *testing.T) map[string]string {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		m[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}
