package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"spinddt/internal/ddt"
	"spinddt/internal/sim"
)

// TestEndpointSendPrepAmortization pins the sender-side Fig. 18 semantics:
// the first flushed Send of a (handle, count) build reports the gather
// preparation cost, every later send reports zero.
func TestEndpointSendPrepAmortization(t *testing.T) {
	typ := ddt.MustIndexedBlock(64, []int{0, 3, 7, 12, 20, 33, 50, 70}, ddt.Int)
	sess := NewSession(NewSessionConfig())
	h, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	ep := sess.Endpoint(EndpointConfig{})

	f1, err := ep.Send(h, 4, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ep.Send(h, 4, SendOpts{Start: 50 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.FlushSends(); err != nil {
		t.Fatal(err)
	}
	r1, err := f1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Prep.Total() <= 0 {
		t.Fatalf("first send reports no host prep: %+v", r1.Prep)
	}
	if r2.Prep != (HostPrep{}) {
		t.Fatalf("second send reports host prep %+v", r2.Prep)
	}
	if !r1.Verified || !r2.Verified {
		t.Fatal("sends not verified against the reference pack")
	}

	// A later flush of the same build still reports zero prep.
	f3, err := ep.Send(h, 4, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := f3.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r3.Prep != (HostPrep{}) {
		t.Fatalf("reused handle reports host prep %+v", r3.Prep)
	}
}

// TestRunSendMatchesEndpointSend: the one-shot outbound-sPIN model charges
// each packet exactly what the gather handler of Endpoint.Send charges for
// the same layout — binary-search steps of the list resolver included.
func TestRunSendMatchesEndpointSend(t *testing.T) {
	cases := []struct {
		name  string
		typ   *ddt.Type
		count int
	}{
		{"list", ddt.MustIndexed([]int{3, 1, 7, 2}, []int{0, 5, 9, 20}, ddt.Double), 64},
		{"list-long", ddt.MustIndexed([]int{3, 1, 7, 2, 5, 1}, []int{0, 5, 9, 20, 30, 40}, ddt.Double), 200},
		{"vector", ddt.MustVector(300, 5, 9, ddt.Double), 4},
	}
	for _, c := range cases {
		one, err := RunSend(NewSendRequest(OutboundSpin, c.typ, c.count))
		if err != nil {
			t.Fatalf("%s: RunSend: %v", c.name, err)
		}
		sess := NewSession(NewSessionConfig())
		h, err := sess.CommitAs(c.typ, Specialized)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sess.Endpoint(EndpointConfig{}).Send(h, c.count, SendOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Wait()
		if err != nil {
			t.Fatalf("%s: Endpoint.Send: %v", c.name, err)
		}
		if one.HPUBusy != rep.NIC.HPUBusy || one.HandlerRuns != rep.NIC.HandlerRuns {
			t.Errorf("%s: RunSend HPUBusy %v over %d runs, Endpoint.Send %v over %d runs",
				c.name, one.HPUBusy, one.HandlerRuns, rep.NIC.HPUBusy, rep.NIC.HandlerRuns)
		}
	}
}

// TestOversizedGatherRejectedEverywhere: RunSend, Endpoint.Send and
// RunTransfer build one gather context for a layout, so they share its
// NIC-memory admission. An irregular indexed_block of 300,000 one-int
// regions needs a 4.8 MB offset list on the NIC, past its 4 MiB, and all
// three must reject it.
func TestOversizedGatherRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	displs := make([]int, 300000)
	for i := 1; i < len(displs); i++ {
		displs[i] = displs[i-1] + 2 + rng.Intn(3)
	}
	typ := ddt.MustIndexedBlock(1, displs, ddt.Int)
	admission := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "NIC memory") {
			t.Errorf("%s: err = %v, want a NIC-memory admission failure", what, err)
		}
	}

	_, err := RunSend(NewSendRequest(OutboundSpin, typ, 1))
	admission("RunSend", err)

	sess := NewSession(NewSessionConfig())
	defer sess.Close()
	h, err := sess.CommitAs(typ, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sess.Endpoint(EndpointConfig{}).Send(h, 1, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait()
	admission("Endpoint.Send", err)

	_, err = RunTransfer(NewTransferRequest(OutboundSpin, HostUnpack, typ, 1))
	admission("RunTransfer", err)
}

// TestEndpointSendAllStrategies: every commit strategy maps to a working
// sender pipeline (offloaded -> NIC gather, HostUnpack -> CPU pack,
// PortalsIovec -> streaming puts) and produces a verified wire stream on
// both backends.
func TestEndpointSendAllStrategies(t *testing.T) {
	typ := ddt.MustVector(128, 16, 48, ddt.Int)
	for _, backend := range []Backend{SimBackend{}, MemBackend{}} {
		cfg := NewSessionConfig()
		cfg.Backend = backend
		sess := NewSession(cfg)
		for _, s := range AllStrategies {
			h, err := sess.CommitAs(typ, s)
			if err != nil {
				t.Fatal(err)
			}
			ep := sess.Endpoint(EndpointConfig{})
			f, err := ep.Send(h, 2, SendOpts{Seed: int64(s) + 1})
			if err != nil {
				t.Fatalf("%v on %s: %v", s, backend.Name(), err)
			}
			res, err := f.Wait()
			if err != nil {
				t.Fatalf("%v on %s: %v", s, backend.Name(), err)
			}
			if !res.Verified {
				t.Fatalf("%v on %s: not verified", s, backend.Name())
			}
			if res.NIC.Injected <= 0 {
				t.Fatalf("%v on %s: injection at %v", s, backend.Name(), res.NIC.Injected)
			}
		}
	}
}

// TestEndpointSendContention: two batched sends through one endpoint share
// the outbound device — the batch takes longer than a lone send, and a
// combined Flush drains both directions.
func TestEndpointSendContention(t *testing.T) {
	typ := ddt.MustVector(512, 128, 256, ddt.Int) // 512B blocks, 256 KiB
	sess := NewSession(NewSessionConfig())
	h, err := sess.Commit(typ)
	if err != nil {
		t.Fatal(err)
	}

	ep := sess.Endpoint(EndpointConfig{})
	fSolo, err := ep.Send(h, 1, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := fSolo.Wait()
	if err != nil {
		t.Fatal(err)
	}

	ep2 := sess.Endpoint(EndpointConfig{})
	fa, err := ep2.Send(h, 1, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ep2.Send(h, 1, SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ep2.Post(h, 1, PostOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep2.Flush(); err != nil { // drains sends AND posts
		t.Fatal(err)
	}
	ra, err := fa.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(); err != nil {
		t.Fatal(err)
	}
	last := ra.NIC.Injected
	if rb.NIC.Injected > last {
		last = rb.NIC.Injected
	}
	if last <= solo.NIC.Injected {
		t.Fatalf("two sends on one endpoint finished at %v, solo at %v: no outbound contention", last, solo.NIC.Injected)
	}
}

// TestTransferDifferentialBackends extends the PR 4 differential oracle to
// the send side: a coupled tx/rx transfer of a random committed type must
// land byte-identical buffers on the simulated backend (gather handlers +
// scatter handlers) and on the host backend (reference pack-then-unpack).
// RunTransfer verifies each backend's receive buffer against the reference
// pipeline in place, so two verified runs imply byte equality.
func TestTransferDifferentialBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	simSess := NewSession(NewSessionConfig())
	memCfg := NewSessionConfig()
	memCfg.Backend = MemBackend{}
	memSess := NewSession(memCfg)

	f := func() bool {
		typ := ddt.RandomType(rng, 3)
		if lo, _ := typ.Footprint(1); lo < 0 {
			return true
		}
		count := 1 + rng.Intn(3)
		recv := RWCP
		if rng.Intn(2) == 0 {
			recv = Specialized
		}
		req := NewTransferRequest(OutboundSpin, recv, typ, count)
		req.Seed = rng.Int63n(1 << 30)

		simRes, err := simSess.RunTransfer(req)
		if err != nil {
			t.Logf("sim transfer: %v (%s)", err, typ.Signature())
			return false
		}
		memRes, err := memSess.RunTransfer(req)
		if err != nil {
			t.Logf("mem transfer: %v (%s)", err, typ.Signature())
			return false
		}
		return simRes.Verified && memRes.Verified
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSendPostHammer drives Send, Post and both flush paths from
// many goroutines against one session — the -race gate for the sender-side
// session surface.
func TestConcurrentSendPostHammer(t *testing.T) {
	typ := ddt.MustVector(64, 32, 96, ddt.Int)
	sess := NewSession(NewSessionConfig())
	h, err := sess.Commit(typ)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := sess.Endpoint(EndpointConfig{})
			for i := 0; i < 6; i++ {
				sf, err := ep.Send(h, 1, SendOpts{Seed: int64(w*100 + i + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				pf, err := ep.Post(h, 1, PostOpts{Seed: int64(w*100 + i + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := ep.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
				if res, err := sf.Wait(); err != nil || !res.Verified {
					t.Errorf("send: %v verified=%v", err, res.Verified)
					return
				}
				if res, err := pf.Wait(); err != nil || !res.Verified {
					t.Errorf("post: %v verified=%v", err, res.Verified)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
