package core

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// bufPool recycles the large per-run scratch buffers: the synthetic packed
// payload, the host staging buffer, the receive buffer and the verify
// reference. A figure sweep runs thousands of independent simulations, each
// needing megabytes of scratch; recycling keeps the allocation volume flat
// instead of linear in the number of experiments. Both pools hold handles:
// callers hand back the handle they drew, so a Put allocates nothing.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled handle to a length-n byte slice with arbitrary
// contents.
func getBuf(n int64) *[]byte {
	b := bufPool.Get().(*[]byte)
	if int64(cap(*b)) >= n {
		*b = (*b)[:n]
		return b
	}
	// Round capacities up to powers of two so sweeps over many message
	// sizes converge onto a few reusable buffers.
	c := n
	if c < 4096 {
		c = 4096
	}
	c = int64(1) << bits.Len64(uint64(c-1))
	*b = make([]byte, n, c)
	return b
}

// cleanPool recycles buffers that are zero through their full capacity, so
// the receive buffer of the next simulation needs no fresh memclr. Run
// re-zeroes only the regions the typemap wrote (at most the message size)
// before returning a buffer here — cheaper than zeroing the whole extent
// at the next acquisition, and the gap checks of verifyReference would
// loudly catch any violation of the invariant.
var cleanPool sync.Pool

// getZeroBuf returns a pooled handle to a length-n zeroed byte slice,
// matching a fresh make().
func getZeroBuf(n int64) *[]byte {
	if b, _ := cleanPool.Get().(*[]byte); b != nil {
		if int64(cap(*b)) >= n {
			*b = (*b)[:n]
			return b
		}
		// Too small for this request but still a perfectly good buffer;
		// let the dirty pool reuse it.
		putBuf(b)
	}
	b := getBuf(n)
	clear((*b)[:cap(*b)])
	return b
}

// putCleanBuf makes a buffer that is zero through its capacity available
// for reuse without re-clearing.
func putCleanBuf(b *[]byte) { cleanPool.Put(b) }

// putBuf makes a scratch buffer available for reuse.
func putBuf(b *[]byte) { bufPool.Put(b) }

// payloadCache memoizes the synthetic message payloads. The fill is a pure
// function of (seed, size) and sweeps re-synthesize the same payload for
// every strategy and repetition, so Run/RunTransfer share one immutable
// buffer per key instead of refilling megabytes per simulation. Entries are
// read-only after insertion; callers must never write to or pool a cached
// payload.
var payloadCache struct {
	sync.RWMutex
	m     map[payloadKey][]byte
	bytes int64
}

type payloadKey struct {
	seed int64
	size int64
}

// payloadCacheCap bounds the cache volume; once exceeded, further keys are
// filled directly (uncached) so pathological sweeps cannot hold the whole
// experiment set in memory.
const payloadCacheCap = 256 << 20

// payloadFor returns the deterministic payload for (seed, size). The result
// is shared and read-only.
func payloadFor(seed, size int64) []byte {
	k := payloadKey{seed: seed, size: size}
	payloadCache.RLock()
	b := payloadCache.m[k]
	payloadCache.RUnlock()
	if b != nil {
		return b
	}
	b = make([]byte, size)
	fillPayload(seed, b)
	payloadCache.Lock()
	if have := payloadCache.m[k]; have != nil {
		b = have // lost the race: share the winner
	} else if payloadCache.bytes+size <= payloadCacheCap {
		if payloadCache.m == nil {
			payloadCache.m = make(map[payloadKey][]byte)
		}
		payloadCache.m[k] = b
		payloadCache.bytes += size
	}
	payloadCache.Unlock()
	return b
}

// fillPayload fills buf with a deterministic pseudo-random byte stream
// derived from seed (a splitmix64 generator). It replaces math/rand payload
// synthesis on the hot path: the simulation only needs reproducible,
// non-trivial bytes, not statistical quality, and this fills ~an order of
// magnitude faster.
func fillPayload(seed int64, buf []byte) {
	x := uint64(seed)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[i:], z^(z>>31))
	}
	if i < len(buf) {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for ; i < len(buf); i++ {
			buf[i] = byte(z)
			z >>= 8
		}
	}
}
