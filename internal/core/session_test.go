package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"spinddt/internal/ddt"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// sessionVector is the Fig. 8-style workload the session tests post: 512 B
// blocks, 256 KiB of data.
func sessionVector() *ddt.Type {
	return ddt.MustVector(512, 128, 256, ddt.Int)
}

// TestCommitIdempotent pins the handle identity contract: committing the
// same type twice returns the same handle, a different strategy a
// different one, and a freed handle rejects posts.
func TestCommitIdempotent(t *testing.T) {
	sess := NewSession(NewSessionConfig())
	typ := sessionVector()
	h1, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("second commit returned a different handle")
	}
	hs, err := sess.CommitAs(typ, Specialized)
	if err != nil {
		t.Fatal(err)
	}
	if hs == h1 {
		t.Fatal("different strategies share a handle")
	}
	if got := hs.Strategy(); got != Specialized {
		t.Fatalf("strategy %v", got)
	}

	ep := sess.Endpoint(EndpointConfig{})
	h1.Free()
	if _, err := ep.Post(h1, 1, PostOpts{}); err == nil {
		t.Fatal("post on a freed handle succeeded")
	}
	// The sibling handle is untouched, and re-committing works.
	if _, err := ep.Post(hs, 1, PostOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Flush(); err != nil {
		t.Fatal(err)
	}
	h3, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("re-commit returned the freed handle")
	}
	// A stale Free (h1 again) must not evict the live re-committed handle.
	h1.Free()
	h4, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if h4 != h3 {
		t.Fatal("stale Free evicted the live handle")
	}
}

// TestEndpointTraceReuse pins the trace ownership contract: one Trace may
// be reused across endpoints sequentially (each flush owns it in turn) and
// collects events from both.
func TestEndpointTraceReuse(t *testing.T) {
	sess := NewSession(NewSessionConfig())
	h, err := sess.CommitAs(sessionVector(), Specialized)
	if err != nil {
		t.Fatal(err)
	}
	tr := &nic.Trace{}
	for i := 0; i < 2; i++ {
		ep := sess.Endpoint(EndpointConfig{Trace: tr})
		fut, err := ep.Post(h, 1, PostOpts{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	completions := 0
	for _, ev := range tr.Events {
		if ev.Kind == nic.TraceCompletion {
			completions++
		}
	}
	if completions != 2 {
		t.Fatalf("%d completion events across two flushes, want 2", completions)
	}
}

// TestHandleReusePrepAmortized pins the Fig. 18 semantics of the session
// API: the first post of a committed handle pays the host preparation
// (state build + PCIe copy), and every subsequent post of the same handle
// reports zero host prep — the state is already resident.
func TestHandleReusePrepAmortized(t *testing.T) {
	for _, strategy := range OffloadStrategies {
		t.Run(strategy.String(), func(t *testing.T) {
			sess := NewSession(NewSessionConfig())
			h, err := sess.CommitAs(sessionVector(), strategy)
			if err != nil {
				t.Fatal(err)
			}
			ep := sess.Endpoint(EndpointConfig{})
			results := make([]Result, 3)
			for i := range results {
				fut, err := ep.Post(h, 1, PostOpts{Seed: int64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				if results[i], err = fut.Wait(); err != nil {
					t.Fatal(err)
				}
				if !results[i].Verified {
					t.Fatalf("post %d not verified", i)
				}
			}
			first := results[0].Prep
			if strategy != HPULocal && first.CPUTime <= 0 && first.CopyBytes <= 0 {
				t.Fatalf("first post reports no host prep: %+v", first)
			}
			for i, r := range results[1:] {
				if r.Prep != (HostPrep{}) {
					t.Fatalf("post %d reports host prep %+v, want zero (state already resident)", i+1, r.Prep)
				}
			}
		})
	}
}

// TestEndpointBatchMatchesOneShot pins the batch executor against the
// one-shot path: N messages posted on one endpoint with non-overlapping
// arrival windows must each report exactly what the one-shot Run of the
// same message reports — same processing time, same handler and DMA
// statistics, same scattered bytes — just shifted by their start time.
func TestEndpointBatchMatchesOneShot(t *testing.T) {
	const n = 4
	const gap = sim.Millisecond
	typ := sessionVector()
	for _, strategy := range OffloadStrategies {
		t.Run(strategy.String(), func(t *testing.T) {
			sess := NewSession(NewSessionConfig())
			h, err := sess.CommitAs(typ, strategy)
			if err != nil {
				t.Fatal(err)
			}
			ep := sess.Endpoint(EndpointConfig{})
			futs := make([]*Future, n)
			for i := range futs {
				futs[i], err = ep.Post(h, 1, PostOpts{
					Seed:  int64(i + 1),
					Start: sim.Time(i) * gap,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := ep.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range futs {
				batch, err := futs[i].Wait()
				if err != nil {
					t.Fatal(err)
				}
				req := NewRequest(strategy, typ, 1)
				req.Seed = int64(i + 1)
				oneShot, err := Run(req)
				if err != nil {
					t.Fatal(err)
				}
				// Normalize what differs by construction: absolute times
				// shift by the post's start, and only the first batch post
				// reports prep while every one-shot run does.
				start := sim.Time(i) * gap
				batch.NIC.FirstByte -= start
				batch.NIC.Done -= start
				batch.Prep = HostPrep{}
				oneShot.Prep = HostPrep{}
				if !reflect.DeepEqual(batch, oneShot) {
					t.Fatalf("post %d differs from one-shot run:\nbatch:   %+v\noneshot: %+v", i, batch, oneShot)
				}
			}
		})
	}
}

// TestCommitPostRace hammers one session from many goroutines: concurrent
// commits of the same types (the build must happen exactly once and never
// tear) and concurrent posts/flushes on per-goroutine endpoints. Run under
// -race via `make race`.
func TestCommitPostRace(t *testing.T) {
	sess := NewSession(NewSessionConfig())
	types := []*ddt.Type{
		ddt.MustVector(256, 128, 256, ddt.Int),
		ddt.MustIndexedBlock(64, []int{0, 80, 200, 330, 470}, ddt.Double),
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := sess.Endpoint(EndpointConfig{})
			for i := 0; i < 6; i++ {
				typ := types[(w+i)%len(types)]
				strategy := OffloadStrategies[(w+i)%len(OffloadStrategies)]
				h, err := sess.CommitAs(typ, strategy)
				if err != nil {
					errs <- err
					return
				}
				fut, err := ep.Post(h, 1, PostOpts{Seed: int64(w*100 + i + 1)})
				if err != nil {
					errs <- err
					return
				}
				res, err := fut.Wait()
				if err != nil {
					errs <- err
					return
				}
				if !res.Verified {
					errs <- fmt.Errorf("worker %d post %d not verified", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionPostSteadyStateAllocBound pins the amortization the handle
// API promises: once a handle's offload state is built, repeated
// post+flush cycles settle into per-message bookkeeping — no state
// rebuild, no fresh scratch buffers — bounded well below what a single
// cold BuildOffload would allocate.
func TestSessionPostSteadyStateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	sess := NewSession(NewSessionConfig())
	h, err := sess.CommitAs(ddt.MustVector(128, 128, 256, ddt.Int), Specialized)
	if err != nil {
		t.Fatal(err)
	}
	ep := sess.Endpoint(EndpointConfig{})
	cycle := func() {
		fut, err := ep.Post(h, 1, PostOpts{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // build the state, warm the pools
	}
	if n := testing.AllocsPerRun(50, cycle); n > 60 {
		t.Fatalf("steady-state post allocates %v per message, want bookkeeping only", n)
	}
}

// TestSpecializedSpillType is the regression the differential oracle
// caught: a subarray whose single merged block is displaced past the
// declared bounds (size == extent, lb == 0, but trueLB > 0). The old
// ddt.Contiguous ignored the true lower bound, so the specialized builder
// took the contiguous fast path and scattered the stream from byte zero —
// 24 bytes off. Every strategy must place this type's data at [24, 72)
// per element, not [0, 48).
func TestSpecializedSpillType(t *testing.T) {
	elem := ddt.Elementary("e8", 8)
	inner := ddt.MustIndexed([]int{1}, []int{1}, ddt.MustContiguous(3, elem))
	spill := ddt.MustSubarray([]int{2}, []int{2}, []int{0}, inner).Commit()
	if lo, _ := spill.TrueBounds(); lo == 0 {
		t.Fatalf("fixture lost its spill: trueLB %d", lo)
	}
	if spill.Contiguous() {
		t.Fatal("a displaced single-block type must not report Contiguous")
	}
	sess := NewSession(NewSessionConfig())
	for _, s := range OffloadStrategies {
		// One-shot path.
		res, err := Run(NewRequest(s, spill, 2))
		if err != nil {
			t.Fatalf("%v one-shot: %v", s, err)
		}
		if !res.Verified {
			t.Fatalf("%v one-shot not verified", s)
		}
		// Session path.
		h, err := sess.CommitAs(spill, s)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := sess.Endpoint(EndpointConfig{}).Post(h, 2, PostOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := fut.Wait(); err != nil || !res.Verified {
			t.Fatalf("%v session post: verified=%v err=%v", s, res.Verified, err)
		}
	}
}

// TestBackendDifferential is the SimBackend-vs-MemBackend oracle: for
// random datatypes, posting the same message through the simulated NIC and
// through the host-memory backend must land byte-identical receive
// buffers (both equal to the reference unpack). The quick rng is pinned
// (several seeds, including the one that caught the displaced-block
// specialized bug) so failures reproduce.
func TestBackendDifferential(t *testing.T) {
	cfgSim := NewSessionConfig()
	cfgMem := NewSessionConfig()
	cfgMem.Backend = MemBackend{}
	simSess := NewSession(cfgSim)
	memSess := NewSession(cfgMem)

	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, depth uint8, strategyPick uint8, countPick uint8) bool {
		typ := ddt.RandomType(rng, int(depth%4)+1)
		count := int(countPick%3) + 1
		if lo, _ := typ.Footprint(count); lo < 0 {
			return true // not a valid receive datatype
		}
		strategy := OffloadStrategies[int(strategyPick)%len(OffloadStrategies)]
		if seed == 0 {
			seed = 1
		}

		post := func(sess *Session) ([]byte, error) {
			h, err := sess.CommitAs(typ, strategy)
			if err != nil {
				return nil, err
			}
			_, hi := typ.Footprint(count)
			dst := make([]byte, hi)
			fut, err := sess.Endpoint(EndpointConfig{}).Post(h, count, PostOpts{Seed: seed, Dst: dst})
			if err != nil {
				return nil, err
			}
			res, err := fut.Wait()
			if err != nil {
				return nil, err
			}
			if !res.Verified {
				return nil, fmt.Errorf("not verified")
			}
			return dst, nil
		}

		simDst, err := post(simSess)
		if err != nil {
			t.Logf("sim backend: type %s: %v", typ.Describe(), err)
			return false
		}
		memDst, err := post(memSess)
		if err != nil {
			t.Logf("mem backend: type %s: %v", typ.Describe(), err)
			return false
		}
		if !bytes.Equal(simDst, memDst) {
			t.Logf("buffers differ for type %s", typ.Describe())
			return false
		}
		return true
	}
	for _, qseed := range []int64{1, 8, 1337} {
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(qseed))}); err != nil {
			t.Fatalf("quick seed %d: %v", qseed, err)
		}
	}
}

// TestPostCallerPacked pins the PostOpts.Packed contract: a caller-
// supplied wire stream is scattered (and verified) instead of a
// synthesized payload, and a stream whose length disagrees with the
// datatype's packed size is rejected before it reaches a backend.
func TestPostCallerPacked(t *testing.T) {
	sess := NewSession(NewSessionConfig())
	defer sess.Close()
	typ := ddt.MustVector(32, 16, 48, ddt.Int)
	h, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	count := 2
	msgSize := typ.Size() * int64(count)
	packed := make([]byte, msgSize)
	for i := range packed {
		packed[i] = byte(i*13 + 7)
	}
	_, hi := typ.Footprint(count)
	dst := make([]byte, hi)
	fut, err := sess.Endpoint(EndpointConfig{}).Post(h, count, PostOpts{Packed: packed, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil || !res.Verified {
		t.Fatalf("caller-packed post: verified=%v err=%v", res.Verified, err)
	}
	want := make([]byte, hi)
	if err := ddt.Unpack(typ, count, packed, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("scattered buffer differs from the reference unpack of the caller stream")
	}
	if _, err := sess.Endpoint(EndpointConfig{}).Post(h, count, PostOpts{Packed: packed[:msgSize-1]}); err == nil {
		t.Fatal("undersized packed stream accepted")
	}
}

// TestHandleBuildsBounded posts and sends one handle at 10^4 distinct
// counts: the handle keeps the builds of at most handleBuildBudget
// counts, every post still verifies, and a count evicted by newer ones is
// built afresh, so its next post reports host prep again.
func TestHandleBuildsBounded(t *testing.T) {
	cfg := NewSessionConfig()
	cfg.Backend = MemBackend{}
	sess := NewSession(cfg)
	defer sess.Close()
	// One fused region per message keeps 10^4 verified posts cheap.
	typ := ddt.MustContiguous(2, ddt.Int)
	h, err := sess.CommitAs(typ, Specialized)
	if err != nil {
		t.Fatal(err)
	}
	const counts = 10000
	stream := make([]byte, typ.Size()*counts)
	fillPayload(3, stream)
	ep := sess.Endpoint(EndpointConfig{})
	post := func(count int) Result {
		t.Helper()
		n := typ.Size() * int64(count)
		fut, err := ep.Post(h, count, PostOpts{Packed: stream[:n]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Send(h, count, SendOpts{Src: stream[:n]}); err != nil {
			t.Fatal(err)
		}
		if err := ep.Flush(); err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil || !res.Verified {
			t.Fatalf("count %d: verified=%v err=%v", count, res.Verified, err)
		}
		return res
	}
	if res := post(1); res.Prep == (HostPrep{}) {
		t.Fatal("first post of count 1 reports no host prep")
	}
	if res := post(1); res.Prep != (HostPrep{}) {
		t.Fatalf("second post of count 1 reports host prep %+v", res.Prep)
	}
	for count := 2; count <= counts; count++ {
		post(count)
		if n := len(h.builds.index); n > handleBuildBudget {
			t.Fatalf("after count %d the handle holds %d builds, budget %d", count, n, handleBuildBudget)
		}
	}
	if res := post(1); res.Prep == (HostPrep{}) {
		t.Fatal("evicted count 1 was not rebuilt: its post reports no host prep")
	}
}

// TestSessionErrorPaths pins the hardened session API: empty datatypes,
// freed handles, undersized buffers, and closed sessions all fail with
// explicit errors, and Session.Close is idempotent and rejects subsequent
// use.
func TestSessionErrorPaths(t *testing.T) {
	typ := ddt.MustVector(64, 32, 96, ddt.Int)

	t.Run("empty datatype", func(t *testing.T) {
		sess := NewSession(NewSessionConfig())
		defer sess.Close()
		for _, empty := range []*ddt.Type{nil, ddt.MustContiguous(0, ddt.Int)} {
			if _, err := sess.CommitAs(empty, RWCP); err == nil {
				t.Fatalf("commit of empty datatype %v succeeded", empty)
			}
		}
	})

	t.Run("freed handle", func(t *testing.T) {
		sess := NewSession(NewSessionConfig())
		defer sess.Close()
		h, err := sess.CommitAs(typ, RWCP)
		if err != nil {
			t.Fatal(err)
		}
		h.Free()
		if _, err := sess.Endpoint(EndpointConfig{}).Post(h, 1, PostOpts{}); err == nil {
			t.Fatal("post with freed handle succeeded")
		}
		if _, err := sess.Endpoint(EndpointConfig{}).Send(h, 1, SendOpts{}); err == nil {
			t.Fatal("send with freed handle succeeded")
		}
	})

	t.Run("undersized buffers", func(t *testing.T) {
		sess := NewSession(NewSessionConfig())
		defer sess.Close()
		h, err := sess.CommitAs(typ, RWCP)
		if err != nil {
			t.Fatal(err)
		}
		_, hi := typ.Footprint(1)
		if _, err := sess.Endpoint(EndpointConfig{}).Post(h, 1, PostOpts{Dst: make([]byte, hi-1)}); err == nil {
			t.Fatal("post with undersized destination succeeded")
		}
		if _, err := sess.Endpoint(EndpointConfig{}).Send(h, 1, SendOpts{Src: make([]byte, hi-1)}); err == nil {
			t.Fatal("send with undersized source succeeded")
		}
	})

	t.Run("closed session", func(t *testing.T) {
		sess := NewSession(NewSessionConfig())
		h, err := sess.CommitAs(typ, RWCP)
		if err != nil {
			t.Fatal(err)
		}
		ep := sess.Endpoint(EndpointConfig{})
		sess.Close()
		sess.Close() // idempotent
		if _, err := sess.CommitAs(typ, Specialized); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("commit on closed session: %v", err)
		}
		if _, err := ep.Post(h, 1, PostOpts{}); err == nil {
			t.Fatal("post on closed session succeeded")
		}
		if _, err := ep.Send(h, 1, SendOpts{}); err == nil {
			t.Fatal("send on closed session succeeded")
		}
	})
}

// errBackendDown is the whole-batch failure downBackend returns.
var errBackendDown = errors.New("backend down")

// downBackend is MemBackend whose receive and send batches fail as a
// whole, with no per-message results, while down is set.
type downBackend struct {
	MemBackend
	down bool
}

func (b *downBackend) Exchange(env BackendEnv, sends []BackendSend, recvs []BackendMessage) ([]nic.SendResult, []nic.Result, error) {
	if b.down {
		return nil, nil, errBackendDown
	}
	return b.MemBackend.Exchange(env, sends, recvs)
}

// TestBackendFailureFailsBatch pins the whole-batch failure path: a
// backend flush that fails fails every Future and SendFuture of its batch
// with the backend's error, and the next batch on the same endpoint
// flushes and verifies.
func TestBackendFailureFailsBatch(t *testing.T) {
	backend := &downBackend{down: true}
	cfg := NewSessionConfig()
	cfg.Backend = backend
	sess := NewSession(cfg)
	defer sess.Close()
	h, err := sess.CommitAs(ddt.MustVector(64, 32, 96, ddt.Int), RWCP)
	if err != nil {
		t.Fatal(err)
	}
	ep := sess.Endpoint(EndpointConfig{})
	batch := func() ([]*Future, []*SendFuture) {
		t.Helper()
		futs := make([]*Future, 3)
		sends := make([]*SendFuture, 2)
		for i := range futs {
			if futs[i], err = ep.Post(h, 1, PostOpts{Seed: int64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sends {
			if sends[i], err = ep.Send(h, 1, SendOpts{Seed: int64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return futs, sends
	}

	futs, sends := batch()
	if err := ep.Flush(); !errors.Is(err, errBackendDown) {
		t.Fatalf("flush error %v, want the backend's", err)
	}
	for i, fut := range futs {
		if _, err := fut.Wait(); !errors.Is(err, errBackendDown) {
			t.Fatalf("future %d: err = %v, want the backend's", i, err)
		}
	}
	for i, fut := range sends {
		if _, err := fut.Wait(); !errors.Is(err, errBackendDown) {
			t.Fatalf("send future %d: err = %v, want the backend's", i, err)
		}
	}

	backend.down = false
	futs, sends = batch()
	if err := ep.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	for i, fut := range futs {
		if res, err := fut.Wait(); err != nil || !res.Verified {
			t.Fatalf("future %d after recovery: verified=%v err=%v", i, res.Verified, err)
		}
	}
	for i, fut := range sends {
		if res, err := fut.Wait(); err != nil || !res.Verified {
			t.Fatalf("send future %d after recovery: verified=%v err=%v", i, res.Verified, err)
		}
	}
}
