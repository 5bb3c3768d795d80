package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spinddt/internal/apps"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
)

// held returns the summed cost of the cache's entries.
func (c *clockCache[K, V]) held() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// TestClockCache pins the eviction policy: the budget holds after every
// insert, an entry hit since the hand's last pass survives it, a value
// larger than the budget stays uncached, and a racing put returns the
// first value stored.
func TestClockCache(t *testing.T) {
	var c clockCache[int, string]
	for k := 0; k < 4; k++ {
		c.put(k, fmt.Sprint(k), 1, 4)
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("entry 1 missing below the budget")
	}
	c.put(4, "4", 1, 4) // evicts 0, the first unreferenced entry
	c.put(5, "5", 2, 4) // clears 1's bit, evicts 2 and 3
	for k, want := range map[int]bool{0: false, 1: true, 2: false, 3: false, 4: true, 5: true} {
		if _, ok := c.get(k); ok != want {
			t.Errorf("entry %d held %v, want %v", k, ok, want)
		}
	}
	if got := c.held(); got != 4 {
		t.Errorf("held cost %d, want 4", got)
	}
	if got := c.put(6, "6", 5, 4); got != "6" || c.held() != 4 {
		t.Errorf("oversized put returned %q and left cost %d", got, c.held())
	}
	if got := c.put(5, "other", 2, 4); got != "5" {
		t.Errorf("put of a held key returned %q, want the held value", got)
	}
	want := CacheStats{Hits: 4, Misses: 3, Evictions: 3}
	if got := c.snapshot(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// churnTypes draws n seeded random types with the element count that
// packs about 2 KiB, each with a small non-negative footprint.
func churnTypes(rng *rand.Rand, n int) []churnType {
	var out []churnType
	for len(out) < n {
		t := ddt.RandomType(rng, 4).Commit()
		count := max(1, 2048/int(t.Size()))
		if lo, hi := t.Footprint(count); lo < 0 || hi > 64<<10 {
			continue
		}
		out = append(out, churnType{enc: ddt.Encode(t), count: count})
	}
	return out
}

type churnType struct {
	enc   []byte
	count int
}

// TestSharedCachesChurn is a long-lived daemon's cache traffic in process:
// session after session on one SharedCaches commits, through Intern, the
// fresh decode of a pool encoding or, every eighth session, of one never
// seen, then posts and verifies one message. Every cache stays within its
// budget throughout; after warm-up, pool commits are intern hits and
// their posts build nothing.
func TestSharedCachesChurn(t *testing.T) {
	sessions := 100_000
	if raceEnabled {
		sessions = 10_000
	}
	warm := sessions / 10
	rng := rand.New(rand.NewSource(3))
	pool := churnTypes(rng, 64)
	sc := NewSharedCaches()
	cfg := NewSessionConfig()
	cfg.Backend = MemBackend{}
	cfg.Caches = sc

	var poolOps, internHits, buildHits int
	for i := 0; i < sessions; i++ {
		st := pool[rng.Intn(len(pool))]
		fresh := i%8 == 7
		if fresh {
			st = churnTypes(rng, 1)[0]
		}
		before := sc.Stats()
		if err := churnSession(cfg, st, int64(i%16+1)); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		after := sc.Stats()
		if i >= warm && !fresh {
			poolOps++
			if after.Types.Hits == before.Types.Hits+1 && after.Types.Misses == before.Types.Misses {
				internHits++
			}
			if after.Artifacts.Misses == before.Artifacts.Misses && after.Artifacts.Hits > before.Artifacts.Hits {
				buildHits++
			}
		}
		if got := sc.caches.types.held(); got > typeBudget {
			t.Fatalf("session %d: intern table holds %d > %d", i, got, typeBudget)
		}
		if got := sc.caches.artifacts.held(); got > artifactBudget {
			t.Fatalf("session %d: artifacts hold %d > %d", i, got, artifactBudget)
		}
		if got := payloadCache.held(); got > payloadBudget {
			t.Fatalf("session %d: payloads hold %d > %d", i, got, payloadBudget)
		}
	}
	st := sc.Stats()
	t.Logf("%d sessions: types %+v, artifacts %+v; after warm-up %d/%d pool commits interned, %d built nothing",
		sessions, st.Types, st.Artifacts, internHits, poolOps, buildHits)
	if st.Types.Evictions == 0 || st.Artifacts.Evictions == 0 {
		t.Fatalf("never-seen types evicted nothing (types %+v, artifacts %+v)", st.Types, st.Artifacts)
	}
	if 100*internHits < 99*poolOps || 100*buildHits < 99*poolOps {
		t.Fatalf("after warm-up: %d intern hits and %d build-free posts of %d pool commits, want >= 99%%",
			internHits, buildHits, poolOps)
	}
}

// churnSession is one served session's cache traffic: decode, intern,
// commit, post one message, flush, free, close.
func churnSession(cfg SessionConfig, st churnType, seed int64) error {
	fresh, err := ddt.Decode(st.enc)
	if err != nil {
		return err
	}
	typ := cfg.Caches.Intern(st.enc, fresh)
	sess := NewSession(cfg)
	defer sess.Close()
	h, err := sess.Commit(typ)
	if err != nil {
		return err
	}
	f, err := sess.Endpoint(EndpointConfig{}).Post(h, st.count, PostOpts{Seed: seed})
	if err != nil {
		return err
	}
	res, err := f.Wait()
	if err != nil {
		return err
	}
	if !res.Verified {
		return fmt.Errorf("post not verified")
	}
	h.Free()
	return nil
}

// TestAppDeckCachesHold runs the Fig. 16 application deck (every instance
// of footprint <= 16 MiB under the four Fig. 16 strategies) twice on one
// session: the deck fits the budgets, so nothing is evicted and the
// second pass is all hits.
func TestAppDeckCachesHold(t *testing.T) {
	var instances []apps.Instance
	for _, in := range apps.All() {
		if _, hi := in.Type.Commit().Footprint(in.Count); hi <= 16<<20 {
			instances = append(instances, in)
		}
	}
	sess := NewSession(NewSessionConfig())
	defer sess.Close()
	deck := func() {
		for _, in := range instances {
			for _, s := range []Strategy{HostUnpack, RWCP, Specialized, PortalsIovec} {
				if _, err := sess.Run(NewRequest(s, in.Type, in.Count)); err != nil {
					t.Fatalf("%s %v: %v", in.Name(), s, err)
				}
			}
		}
	}
	payloads0 := payloadCache.snapshot()
	deck()
	first, payloads1 := sess.caches.artifacts.snapshot(), payloadCache.snapshot()
	deck()
	second, payloads2 := sess.caches.artifacts.snapshot(), payloadCache.snapshot()
	t.Logf("artifacts: first pass %+v, %d held; payloads %+v", first, sess.caches.artifacts.held(), payloads2)
	if second.Evictions != 0 || payloads2.Evictions != payloads0.Evictions {
		t.Fatalf("the deck evicted: artifacts %+v, payloads %+v -> %+v", second, payloads0, payloads2)
	}
	if second.Misses != first.Misses || payloads2.Misses != payloads1.Misses {
		t.Fatalf("second pass missed: artifacts %+v -> %+v, payloads %+v -> %+v", first, second, payloads1, payloads2)
	}
	if second.Hits <= first.Hits {
		t.Fatalf("second pass looked nothing up: artifacts %+v -> %+v", first, second)
	}
}

// TestCacheEvictionHammer races eviction against use. Goroutines intern
// the fresh decode of a hot or a cold encoding, build (template lookup
// and instantiate), run the instance on the simulated NIC, byte-verify
// the receive buffer and Release. The cold set is several times both
// budgets, so past the first few hundred builds every miss evicts:
// templates are dropped while their instances are checked out, interned
// types leave while their artifacts are cached, and evicted keys are
// rebuilt beside live instances of the old build.
func TestCacheEvictionHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hot := churnTypes(rng, 8)
	cold := churnTypes(rng, 3*typeBudget)
	const goroutines = 4
	const rounds = 1000
	sc := NewSharedCaches()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				st := cold[rng.Intn(len(cold))]
				if i%2 == 0 {
					st = hot[rng.Intn(len(hot))]
				}
				if err := hammerRound(sc, st, int64(g*rounds+i+1)); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := sc.Stats()
	t.Logf("types %+v, artifacts %+v", st.Types, st.Artifacts)
	if st.Types.Evictions == 0 || st.Artifacts.Evictions == 0 || st.Artifacts.Hits == 0 {
		t.Fatalf("no eviction under churn: types %+v, artifacts %+v", st.Types, st.Artifacts)
	}
}

func hammerRound(sc *SharedCaches, st churnType, seed int64) error {
	fresh, err := ddt.Decode(st.enc)
	if err != nil {
		return err
	}
	typ := sc.Intern(st.enc, fresh)
	p := BuildParams{
		Type: typ, Count: st.count,
		NIC: nic.DefaultConfig(), Cost: DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		Epsilon: 0.2,
	}
	off, err := sc.caches.buildOffload(SelectStrategy(typ), p)
	if err != nil {
		return err
	}
	defer off.Release()
	packed := payloadFor(seed, typ.Size()*int64(st.count))
	_, hi := typ.Footprint(st.count)
	dst := make([]byte, hi)
	env := BackendEnv{NIC: p.NIC, Host: p.Host}
	if _, err := oneShot.flushOne(env, BackendMessage{
		Type: typ, Count: st.count, PT: off.PT(), Bits: 1, Packed: packed, Dst: dst,
	}); err != nil {
		return err
	}
	return verifyReference(typ, st.count, packed, dst, hi)
}
