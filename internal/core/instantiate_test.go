package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"spinddt/internal/ddt"
	"spinddt/internal/fabric"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
)

// runOff drives one packed message through off on the simulated backend and
// returns the device result plus the receive buffer. The offload is NOT
// released — the caller owns its lifecycle so tests can replay one
// instance across runs.
func runOff(t *testing.T, off *Offload, typ *ddt.Type, count int, order []int, seed int64) (nic.Result, []byte) {
	t.Helper()
	msgSize := typ.Size() * int64(count)
	_, hi := typ.Footprint(count)
	packed := payloadFor(seed, msgSize)
	dst := make([]byte, hi)
	env := BackendEnv{NIC: nic.DefaultConfig(), Host: hostcpu.DefaultConfig()}
	_, res, err := SimBackend{}.Exchange(env, nil, []BackendMessage{{
		Type: typ, Count: count, PT: off.PT(), Bits: 1,
		Packed: packed, Dst: dst, Order: order,
	}})
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	return res[0], dst
}

// spillType returns a committed type whose typemap starts past the
// declared bounds (trueLB > 0) — the shape that historically broke
// contiguous fast paths.
func spillType(t *testing.T) *ddt.Type {
	t.Helper()
	elem := ddt.Elementary("e8", 8)
	inner := ddt.MustIndexed([]int{1}, []int{1}, ddt.MustContiguous(3, elem))
	spill := ddt.MustSubarray([]int{2}, []int{2}, []int{0}, inner).Commit()
	if lo, _ := spill.TrueBounds(); lo == 0 {
		t.Fatalf("fixture lost its spill: trueLB %d", lo)
	}
	return spill
}

// TestInstantiateMatchesFreshBuild is the template/instance contract: a
// pooled instance that has already executed a message and been released
// must, after re-instantiation, replay any message tick-for-tick and
// byte-for-byte identical to an offload minted cold from the same
// template — across every offload strategy, in-order and reordered
// delivery, and a trueLB>0 spill type.
func TestInstantiateMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vec := fig8Vector(512, 1<<17)
	spill := spillType(t)

	cases := []struct {
		name  string
		typ   *ddt.Type
		count int
	}{
		{"vector", vec, 1},
		{"spill", spill, 16},
	}
	for _, tc := range cases {
		msgSize := tc.typ.Size() * int64(tc.count)
		npkt := fabric.DefaultConfig().NumPackets(msgSize)
		orders := [][]int{nil, fabric.ReorderWindow(npkt, 8, rng)}
		for _, s := range OffloadStrategies {
			p := BuildParams{
				Type: tc.typ, Count: tc.count,
				NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
				Epsilon: 0.2,
			}
			// A private cache set: the template is built once here and
			// never shared with the package-level caches, so the cold
			// reference and the replayed instance come from one template.
			caches := &offloadCaches{}
			tmpl, err := caches.template(s, p)
			if err != nil {
				t.Fatalf("%s/%v: template: %v", tc.name, s, err)
			}
			for oi, order := range orders {
				cold := tmpl.mint()
				wantRes, wantDst := runOff(t, cold, tc.typ, tc.count, order, int64(oi+1))

				// Dirty a pooled instance with a DIFFERENT message (the
				// other order, another seed), release it, and take it
				// back out of the pool: the rewind must erase every
				// trace of the first execution.
				inst := tmpl.instantiate()
				dirtyOrder := orders[(oi+1)%len(orders)]
				runOff(t, inst, tc.typ, tc.count, dirtyOrder, 99)
				inst.Release()
				again := tmpl.instantiate()
				if again != inst {
					t.Fatalf("%s/%v: pool did not hand back the released instance", tc.name, s)
				}
				gotRes, gotDst := runOff(t, again, tc.typ, tc.count, order, int64(oi+1))

				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Errorf("%s/%v order %d: replayed instance diverges:\n cold  %+v\n reuse %+v", tc.name, s, oi, wantRes, gotRes)
				}
				if !bytes.Equal(wantDst, gotDst) {
					t.Errorf("%s/%v order %d: replayed instance produced different bytes", tc.name, s, oi)
				}
				again.Release()
			}
		}
	}
}

// TestInstantiateSharesTemplate pins the cache contract: two builds of
// the same (strategy, params) return distinct instances of ONE template,
// each owning a distinct execution context (NIC-memory residency counts
// contexts), and a released instance is reused rather than re-minted.
func TestInstantiateSharesTemplate(t *testing.T) {
	typ := fig8Vector(512, 1<<16)
	p := BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	}
	caches := &offloadCaches{}
	a, err := caches.buildOffload(RWCP, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := caches.buildOffload(RWCP, p)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two builds returned one instance")
	}
	if a.tmpl != b.tmpl {
		t.Fatal("two builds of identical params built two templates")
	}
	if a.Ctx == b.Ctx {
		t.Fatal("instances share one execution context")
	}
	c, err := a.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if c.tmpl != a.tmpl {
		t.Fatal("Instantiate left the template")
	}
	b.Release()
	d, err := a.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if d != b {
		t.Fatal("pool re-minted instead of reusing the released instance")
	}
	a.Release()
	c.Release()
	d.Release()
}

func TestReleaseTwicePanics(t *testing.T) {
	typ := fig8Vector(512, 1<<16)
	caches := &offloadCaches{}
	off, err := caches.buildOffload(HPULocal, BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	off.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	off.Release()
}

// TestInstantiateReleaseRace hammers one template's pool from many
// goroutines, each cycling instantiate -> execute -> release; under
// -race this checks the pool lock and that no two live instances ever
// share mutable state (each run verifies its own receive bytes).
func TestInstantiateReleaseRace(t *testing.T) {
	typ := fig8Vector(512, 1<<15)
	p := BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	}
	caches := &offloadCaches{}
	seed, err := caches.buildOffload(RWCP, p)
	if err != nil {
		t.Fatal(err)
	}
	msgSize := typ.Size()
	_, hi := typ.Footprint(1)

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			env := BackendEnv{NIC: nic.DefaultConfig(), Host: hostcpu.DefaultConfig()}
			for i := 0; i < rounds; i++ {
				off, err := seed.Instantiate()
				if err != nil {
					errs <- err.Error()
					return
				}
				packed := payloadFor(int64(g*rounds+i+1), msgSize)
				dst := make([]byte, hi)
				if _, _, err := (SimBackend{}).Exchange(env, nil, []BackendMessage{{
					Type: typ, Count: 1, PT: off.PT(), Bits: 1,
					Packed: packed, Dst: dst,
				}}); err != nil {
					errs <- err.Error()
					return
				}
				if err := verifyReference(typ, 1, packed, dst, hi); err != nil {
					errs <- err.Error()
					return
				}
				off.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	seed.Release()
}
