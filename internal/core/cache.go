package core

import "sync"

// CacheStats counts one cache's lookups: a hit returned a held entry, a
// miss found none (the caller then builds and inserts), and an eviction
// dropped an entry to keep the cache within its budget.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// clockCache is a map bounded by a cost budget that evicts with CLOCK
// (second chance). A hit sets its entry's reference bit; an insert
// sweeps the hand over the entries, clearing set bits and evicting
// entries whose bit is clear, until the new entry fits the budget. So an
// entry survives a full sweep only if it was hit since the previous one,
// and a long-lived cache keeps its working set while cold entries age
// out. Eviction only drops the cache's reference: a value a caller
// already holds stays valid. The zero value is an empty cache; one mutex
// guards it.
type clockCache[K comparable, V any] struct {
	mu    sync.Mutex
	index map[K]int         // key -> slot
	slots []clockSlot[K, V] // the clock face; cost 0 marks a free slot
	free  []int             // free slots, most recently freed last
	hand  int               // next slot the sweep examines
	cost  int64             // summed cost of the held entries
	stats CacheStats
}

type clockSlot[K comparable, V any] struct {
	key  K
	val  V
	cost int64
	ref  bool
}

// get returns the value held for k and marks it referenced.
func (c *clockCache[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[k]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.slots[i].ref = true
	return c.slots[i].val, true
}

// put inserts v under k at the given cost, evicting until the cache holds
// at most budget, and returns the value the cache now holds for k: v, or
// the entry a concurrent put stored first (so racing builders share one
// winner). Every entry costs at least 1, which bounds the entry count by
// the budget; a value costing more than the whole budget is returned
// uncached.
func (c *clockCache[K, V]) put(k K, v V, cost, budget int64) V {
	cost = max(cost, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[k]; ok {
		c.slots[i].ref = true
		return c.slots[i].val
	}
	if cost > budget {
		return v
	}
	for c.cost+cost > budget {
		// c.cost > 0 here, so some slot is held and the sweep ends
		// within two turns of the hand.
		s := &c.slots[c.hand]
		switch {
		case s.cost == 0:
		case s.ref:
			s.ref = false
		default:
			delete(c.index, s.key)
			c.cost -= s.cost
			*s = clockSlot[K, V]{}
			c.free = append(c.free, c.hand)
			c.stats.Evictions++
		}
		c.hand = (c.hand + 1) % len(c.slots)
	}
	// After an eviction the most recently freed slot is the one the hand
	// just passed, so the new entry waits a full turn before its first
	// examination.
	i := len(c.slots)
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, clockSlot[K, V]{})
	}
	c.slots[i] = clockSlot[K, V]{key: k, val: v, cost: cost}
	if c.index == nil {
		c.index = make(map[K]int)
	}
	c.index[k] = i
	c.cost += cost
	return v
}

// snapshot returns the cache's lookup counters.
func (c *clockCache[K, V]) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
