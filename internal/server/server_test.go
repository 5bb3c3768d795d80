package server_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/server"
	"spinddt/internal/server/client"
	"spinddt/internal/transport"
)

// fastWire is the transport tuning every test uses: aggressive RTO so
// lossy runs converge in test time, a deep retry budget so they still
// converge at 10% injected loss.
func fastWire() transport.Config {
	return transport.Config{
		RTOMin:     time.Millisecond,
		RTOMax:     50 * time.Millisecond,
		MaxRetries: 30,
	}
}

// startServer boots a daemon on a fresh UDP loopback socket, optionally
// behind a fault-injecting wrapper, and tears it down with the test.
func startServer(t *testing.T, cfg server.Config, fault *transport.FaultConfig) (*server.Server, string) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	var wire net.PacketConn = conn
	if fault != nil {
		wire = transport.NewFaultConn(conn, *fault)
	}
	if cfg.Transport == (transport.Config{}) {
		cfg.Transport = fastWire()
	}
	srv := server.New(wire, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// dial opens a client session against the daemon and closes it with the
// test.
func dial(t *testing.T, addr string, session uint32) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, session, client.Config{Transport: fastWire()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerLifecycle is the happy path: open, commit, a seeded post, a
// caller-packed post, a send, flush with every record verified, free,
// close — and the daemon's counters track it all.
func TestServerLifecycle(t *testing.T) {
	srv, addr := startServer(t, server.Config{}, nil)
	c := dial(t, addr, 7)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	typ := ddt.MustVector(64, 16, 48, ddt.Int)
	h, err := c.Commit(typ, core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	if _, err := c.Post(h, count, 42); err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, typ.Size()*count)
	for i := range packed {
		packed[i] = byte(i * 31)
	}
	if _, err := c.PostPacked(h, count, packed); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(h, count, 17); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("flush returned %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Status != server.StatusOK || !rec.Verified {
			t.Fatalf("record %d: status %v verified %v", i, rec.Status, rec.Verified)
		}
		if rec.Bytes != uint64(len(packed)) {
			t.Fatalf("record %d moved %d bytes, want %d", i, rec.Bytes, len(packed))
		}
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ServerSessions(); err != nil || n != 1 {
		t.Fatalf("ServerSessions = %d, %v", n, err)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Opened != 1 || st.Closed != 1 || st.Open != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestServerCommitInterning pins the served commit path's reuse: a second
// session committing an encoding the daemon has seen gets an intern hit,
// and its post builds nothing, as the daemon's cache counters report.
func TestServerCommitInterning(t *testing.T) {
	srv, addr := startServer(t, server.Config{}, nil)
	typ := ddt.MustVector(64, 16, 48, ddt.Int)
	var after []core.SharedCacheStats
	for session := uint32(1); session <= 2; session++ {
		c := dial(t, addr, session)
		if err := c.Open(); err != nil {
			t.Fatal(err)
		}
		h, err := c.Commit(typ, core.RWCP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Post(h, 2, 1); err != nil {
			t.Fatal(err)
		}
		if recs, err := c.Flush(); err != nil || len(recs) != 1 || !recs[0].Verified {
			t.Fatalf("session %d flush: %+v, %v", session, recs, err)
		}
		if err := c.CloseSession(); err != nil {
			t.Fatal(err)
		}
		after = append(after, srv.Stats().Caches)
	}
	first, second := after[0], after[1]
	if first.Types != (core.CacheStats{Misses: 1}) || second.Types != (core.CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("intern table: %+v after the first session, %+v after the second", first.Types, second.Types)
	}
	if first.Artifacts.Misses == 0 || second.Artifacts.Misses != first.Artifacts.Misses || second.Artifacts.Hits == 0 {
		t.Fatalf("build caches: %+v after the first session, %+v after the second", first.Artifacts, second.Artifacts)
	}
}

// TestServerBatchedReads pins the daemon's side of the batched wire: a
// served 64 KiB PostPacked and its Flush cost the daemon's socket fewer
// than ten reads (one read per datagram would be about fifty), as its
// Stats report.
func TestServerBatchedReads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("UDP GRO is a Linux socket option")
	}
	// An RTO far above the loopback round trip keeps spurious
	// retransmissions out of the count.
	quiet := transport.Config{RTOMin: 250 * time.Millisecond, RTOMax: time.Second}
	srv, addr := startServer(t, server.Config{Transport: quiet}, nil)
	c, err := client.Dial(addr, 5, client.Config{Transport: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	typ := ddt.MustVector(256, 64, 128, ddt.Int)
	h, err := c.Commit(typ, core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, typ.Size())
	for i := range packed {
		packed[i] = byte(i * 17)
	}

	before := srv.Stats().Transport
	if _, err := c.PostPacked(h, 1, packed); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != server.StatusOK || !recs[0].Verified || recs[0].Bytes != 64<<10 {
		t.Fatalf("flush records %+v", recs)
	}
	after := srv.Stats().Transport
	if reads, msgs := after.ReadCalls-before.ReadCalls, after.MsgsReceived-before.MsgsReceived; reads >= 10 || msgs != 2 {
		t.Fatalf("daemon took %d requests in %d reads; want 2 requests in fewer than 10", msgs, reads)
	}
	t.Logf("daemon: 2 requests in %d reads, %d acks sent", after.ReadCalls-before.ReadCalls, after.AcksSent-before.AcksSent)
}

// TestServerTypedRejections pins every server-side rejection to its
// typed error as observed across the wire — the remote caller can
// errors.Is exactly like an in-process one.
func TestServerTypedRejections(t *testing.T) {
	_, addr := startServer(t, server.Config{
		MaxSessions: 2,
		MaxHandles:  1,
		ByteBudget:  1 << 16,
	}, nil)
	typ := ddt.MustVector(64, 16, 48, ddt.Int)

	c := dial(t, addr, 1)

	// Requests on a session that was never opened.
	if _, err := c.Post(1, 1, 0); !errors.Is(err, server.ErrUnknownSession) {
		t.Fatalf("post before open: %v", err)
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("double open: %v", err)
	}

	// Session id 0 is the server's own.
	zero := dial(t, addr, 0)
	if err := zero.Open(); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("open session 0: %v", err)
	}

	// Handle bookkeeping: unknown, duplicate, over-limit, freed.
	if _, err := c.Post(99, 1, 0); !errors.Is(err, server.ErrUnknownHandle) {
		t.Fatalf("post unknown handle: %v", err)
	}
	if _, err := c.Post(0, 1, 0); !errors.Is(err, server.ErrUnknownHandle) {
		t.Fatalf("post never-issued handle 0: %v", err)
	}
	h, err := c.Commit(typ, core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(typ, core.RWCP); !errors.Is(err, server.ErrDuplicateCommit) {
		t.Fatalf("duplicate commit: %v", err)
	}
	other := ddt.MustVector(32, 8, 24, ddt.Double)
	if _, err := c.Commit(other, core.RWCP); !errors.Is(err, server.ErrHandleLimit) {
		t.Fatalf("commit past MaxHandles: %v", err)
	}

	// Per-session byte budget: the vector's packed size plus footprint
	// beats the 64 KiB budget at a large enough count.
	if _, err := c.Post(h, 64, 0); !errors.Is(err, server.ErrByteBudget) {
		t.Fatalf("post past byte budget: %v", err)
	}

	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post(h, 1, 0); !errors.Is(err, server.ErrFreedHandle) {
		t.Fatalf("post freed handle: %v", err)
	}
	if err := c.Free(h); !errors.Is(err, server.ErrFreedHandle) {
		t.Fatalf("double free: %v", err)
	}

	// A freed handle's commit slot is reusable, and the re-commit is a
	// fresh handle, not the freed id.
	h2, err := c.Commit(typ, core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatalf("re-commit returned the freed handle id %d", h)
	}

	// Session limit: the third concurrent open is rejected.
	c2 := dial(t, addr, 2)
	if err := c2.Open(); err != nil {
		t.Fatal(err)
	}
	c3 := dial(t, addr, 3)
	if err := c3.Open(); !errors.Is(err, server.ErrSessionLimit) {
		t.Fatalf("open past MaxSessions: %v", err)
	}

	// Strategy bytes outside the offloaded set are rejected.
	if _, err := c2.Commit(typ, core.HostUnpack); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("commit host-unpack strategy: %v", err)
	}
}

// TestServerIdleReap is the vanished-client scenario: a session that
// goes quiet mid-conversation is reaped, its server-side resources are
// released, and the client's eventual flush gets the typed
// unknown-session rejection.
func TestServerIdleReap(t *testing.T) {
	srv, addr := startServer(t, server.Config{IdleTimeout: 100 * time.Millisecond}, nil)
	c := dial(t, addr, 11)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	typ := ddt.MustVector(64, 16, 48, ddt.Int)
	h, err := c.Commit(typ, core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post(h, 2, 0); err != nil {
		t.Fatal(err)
	}

	// The client vanishes mid-flight; the reaper collects the session.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Reaped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Flush(); !errors.Is(err, server.ErrUnknownSession) {
		t.Fatalf("flush after reap: %v", err)
	}
	if st := srv.Stats(); st.Open != 0 {
		t.Fatalf("reaped session still open: %+v", st)
	}
}

// soakLossRates mirrors the transport/core loss matrix: CI pins one
// rate per shard via SPINDDT_LOSS_PCT, a plain `go test` runs all.
func soakLossRates(t *testing.T) []int {
	if s := os.Getenv("SPINDDT_LOSS_PCT"); s != "" {
		pct, err := strconv.Atoi(s)
		if err != nil || pct < 0 || pct > 90 {
			t.Fatalf("SPINDDT_LOSS_PCT=%q: want an integer percentage in [0, 90]", s)
		}
		return []int{pct}
	}
	return []int{0, 1, 10}
}

// soakSessions is the concurrent-session floor the soak drives.
const soakSessions = 64

// soakType draws a random committable datatype whose receive footprint
// and packed size stay soak-friendly.
func soakType(rng *rand.Rand, count int) *ddt.Type {
	for {
		typ := ddt.RandomType(rng, 3)
		lo, hi := typ.Footprint(count)
		size := typ.Size() * int64(count)
		if lo >= 0 && size > 0 && size <= 1<<17 && hi <= 1<<18 {
			return typ
		}
	}
}

// streamRecord is MemBackend that records a SHA-256 digest of every
// stream a receive batch hands it, so the soak can check that each
// caller-packed stream reached the backend as the client packed it.
type streamRecord struct {
	core.MemBackend
	mu   sync.Mutex
	seen map[[sha256.Size]byte]bool
}

func (b *streamRecord) Exchange(env core.BackendEnv, sends []core.BackendSend, msgs []core.BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	b.mu.Lock()
	for _, m := range msgs {
		b.seen[sha256.Sum256(m.Packed)] = true
	}
	b.mu.Unlock()
	return b.MemBackend.Exchange(env, sends, msgs)
}

// received reports whether a stream with digest sum reached the backend.
// It reads under the mutex: UDP delivery gives the race detector no
// happens-before edge between the server's worker and the test.
func (b *streamRecord) received(sum [sha256.Size]byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seen[sum]
}

// TestServerSoak is the server-soak CI gate: soakSessions concurrent
// client sessions hammer one daemon over seeded fault injection on both
// directions at each loss-matrix rate — mixed commits, seeded posts,
// caller-packed posts and sends of random datatypes — and every
// delivered buffer must come back verified (the server byte-checks each
// scatter against the reference unpack of the exact wire stream). The
// server checks a stream only against itself, so every caller-packed
// stream must also have reached the backend with the digest the client
// packed: corruption consistent within a message passes the first check
// and fails this one.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: long under -short")
	}
	for _, pct := range soakLossRates(t) {
		t.Run(fmt.Sprintf("loss%d", pct), func(t *testing.T) {
			rate := float64(pct) / 100
			srvFault := &transport.FaultConfig{
				Seed:        ^int64(0x5eed),
				DropRate:    rate,
				DupRate:     rate / 2,
				ReorderRate: rate / 2,
				CorruptRate: rate / 2,
			}
			rec := &streamRecord{seen: make(map[[sha256.Size]byte]bool)}
			srv, addr := startServer(t, server.Config{
				MaxSessions: soakSessions,
				IdleTimeout: time.Minute,
				Backend:     rec,
			}, srvFault)

			var wg sync.WaitGroup
			errs := make(chan error, soakSessions)
			sent := make([][][sha256.Size]byte, soakSessions)
			for i := 0; i < soakSessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					if sent[i], err = soakSession(addr, uint32(i+1), rate, int64(i)); err != nil {
						errs <- fmt.Errorf("session %d: %w", i+1, err)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for i, sums := range sent {
				for _, sum := range sums {
					if !rec.received(sum) {
						t.Errorf("session %d: a caller-packed stream reached the backend altered", i+1)
					}
				}
			}
			st := srv.Stats()
			if st.Opened != soakSessions || st.Closed != soakSessions {
				t.Fatalf("soak stats: %+v", st)
			}
		})
	}
}

// soakSession is one client's life in the soak: open, commit a couple
// of random types, run rounds of mixed seeded/caller-packed posts and
// sends, flush each round with every record verified, then close. It
// returns the digests of the caller-packed streams it posted.
func soakSession(addr string, session uint32, rate float64, seed int64) ([][sha256.Size]byte, error) {
	rng := rand.New(rand.NewSource(0x50a1 ^ seed))
	c, err := client.Dial(addr, session, client.Config{
		Transport: fastWire(),
		Fault: &transport.FaultConfig{
			Seed:        1337 + seed,
			DropRate:    rate,
			DupRate:     rate / 2,
			ReorderRate: rate / 2,
			CorruptRate: rate / 2,
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Open(); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}

	type committed struct {
		id    uint32
		typ   *ddt.Type
		count int
	}
	var types []committed
	var sums [][sha256.Size]byte
	for len(types) < 2 {
		count := 1 + rng.Intn(4)
		typ := soakType(rng, count)
		id, err := c.CommitAuto(typ)
		if errors.Is(err, server.ErrDuplicateCommit) {
			continue // the rng drew an already-committed shape
		}
		if err != nil {
			return nil, fmt.Errorf("commit: %w", err)
		}
		types = append(types, committed{id: id, typ: typ, count: count})
	}

	for round := 0; round < 3; round++ {
		var want []uint64
		for op := 0; op < 2+rng.Intn(3); op++ {
			ct := types[rng.Intn(len(types))]
			size := ct.typ.Size() * int64(ct.count)
			switch rng.Intn(3) {
			case 0: // server-synthesized payload
				if _, err := c.Post(ct.id, ct.count, rng.Int63()); err != nil {
					return nil, fmt.Errorf("post: %w", err)
				}
			case 1: // client-packed wire bytes, server-verified
				_, hi := ct.typ.Footprint(ct.count)
				src := make([]byte, hi)
				rng.Read(src)
				packed := make([]byte, size)
				if _, err := ddt.PackInto(ct.typ, ct.count, src, packed); err != nil {
					return nil, fmt.Errorf("pack: %w", err)
				}
				if _, err := c.PostPacked(ct.id, ct.count, packed); err != nil {
					return nil, fmt.Errorf("post packed: %w", err)
				}
				sums = append(sums, sha256.Sum256(packed))
			case 2: // outbound gather
				if _, err := c.Send(ct.id, ct.count, rng.Int63()); err != nil {
					return nil, fmt.Errorf("send: %w", err)
				}
			}
			want = append(want, uint64(size))
		}
		recs, err := c.Flush()
		if err != nil {
			return nil, fmt.Errorf("flush round %d: %w", round, err)
		}
		if len(recs) != len(want) {
			return nil, fmt.Errorf("flush round %d: %d records, want %d", round, len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.Status != server.StatusOK || !rec.Verified || rec.Bytes != want[i] {
				return nil, fmt.Errorf("round %d record %d: status=%v verified=%v bytes=%d want %d",
					round, i, rec.Status, rec.Verified, rec.Bytes, want[i])
			}
		}
	}
	if err := c.CloseSession(); err != nil {
		return nil, fmt.Errorf("close session: %w", err)
	}
	return sums, nil
}
