package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// InfiniteLookahead marks a shard that never posts cross-shard events (a
// pure sink, e.g. a host-side collector). Such shards never constrain the
// synchronization horizon.
const InfiniteLookahead = Time(1) << 62

// xmsg is one cross-shard event in flight: a typed event plus its absolute
// firing time. The context handle is relative to the destination shard's
// engine (the sender names an object the receiver bound).
type xmsg struct {
	at   Time
	a, b int64
	ctx  Ctx
	kind Kind
}

// Shard is one domain of a sharded simulation: it owns a full Engine (its
// own calendar queue, context table and clock) plus outboxes of events
// posted to other shards. All model state reachable from a shard's events
// must be owned by that shard; cross-shard influence flows exclusively
// through PostRemote.
type Shard struct {
	Engine
	id        int
	name      string
	lookahead Time
	parent    *ParallelEngine
	outbox    [][]xmsg // per-destination shard, this window's posts
}

// ID returns the shard's index in its ParallelEngine.
func (s *Shard) ID() int { return s.id }

// Name returns the diagnostic name given to NewShard.
func (s *Shard) Name() string { return s.name }

// PostRemote schedules a typed event in dst's engine at absolute time t.
// The context handle c must have been obtained from dst's Bind. The event
// is buffered in a mailbox and delivered at the next window boundary; the
// conservative protocol requires t to be at least the current window's
// horizon, which the sender's declared lookahead guarantees when every
// cross-shard post is delayed by at least that lookahead. Violations panic:
// they mean the shard declared a lookahead larger than the model's true
// minimum cross-domain latency, which would silently corrupt event order.
func (s *Shard) PostRemote(dst *Shard, t Time, k Kind, c Ctx, a, b int64) {
	if dst.parent != s.parent {
		panic("sim: PostRemote across ParallelEngines")
	}
	if dst == s {
		s.Post(t, k, c, a, b) // self-posts are ordinary local events
		return
	}
	if t < s.parent.horizon {
		panic(fmt.Sprintf("sim: shard %q #%d posts to %q #%d at %v inside the current window (horizon %v, lookahead %v): lookahead violation",
			s.name, s.id, dst.name, dst.id, t, s.parent.horizon, s.lookahead))
	}
	s.outbox[dst.id] = append(s.outbox[dst.id], xmsg{at: t, kind: k, ctx: c, a: a, b: b})
}

// ParallelEngine coordinates a set of shards under conservative windowed
// synchronization (an LBTS/null-message scheme in its barrier form): in
// each round it computes the lower bound on the timestamp of any future
// cross-shard event — min over shards of (earliest pending local event +
// that shard's lookahead) — and lets every shard execute its local events
// strictly below that horizon in parallel. Between rounds, mailboxes are
// flushed in a deterministic merge order, so the firing sequence of every
// shard is independent of the worker count and of OS scheduling.
type ParallelEngine struct {
	shards  []*Shard
	spare   []*Shard // reset shards kept for reuse (AcquireParallel pooling)
	workers int
	horizon Time
	windows uint64
	scratch []xmsg
	aux     []xmsg // merge buffer of sortXmsgs, reused across windows

	// The parallel executor of one Run: helper goroutines park on kick
	// between windows, claim shards through next and check in on done,
	// so a window costs no goroutine spawn and no allocation; exited
	// counts them out when the run ends.
	kick   chan struct{}
	next   atomic.Int64
	done   sync.WaitGroup
	exited sync.WaitGroup
}

// NewParallel returns an empty sharded simulation executed by up to
// workers goroutines per window. workers <= 1 selects the serial executor,
// which runs shards in index order within each window and fires, by
// construction, exactly the same per-shard event sequences as any parallel
// execution.
func NewParallel(workers int) *ParallelEngine {
	if workers < 1 {
		workers = 1
	}
	return &ParallelEngine{workers: workers}
}

// parallelPool recycles ParallelEngines together with their Shard storage
// (each shard's calendar queue, context table and outbox rows), the
// sharded-engine counterpart of enginePool: a steady stream of sharded
// simulations — every one-NIC run is one — stops re-allocating per-shard
// queue storage once the pooled engines have warmed up.
var parallelPool = sync.Pool{New: func() any { return &ParallelEngine{} }}

// AcquireParallel returns an empty pooled sharded simulation with the
// given executor width. Shards created on it reuse the queue storage of
// the shards of previous runs.
func AcquireParallel(workers int) *ParallelEngine {
	if workers < 1 {
		workers = 1
	}
	p := parallelPool.Get().(*ParallelEngine)
	p.workers = workers
	return p
}

// ReleaseParallel resets the engine and returns it (with its shard
// storage) to the pool. The caller must not use the engine, its shards or
// anything bound in their context tables afterwards. The spare stack is
// pushed in reverse, so the next run's shard i reuses this run's shard i
// and its queue storage stays warm for the same role.
func ReleaseParallel(p *ParallelEngine) {
	for i := len(p.shards) - 1; i >= 0; i-- {
		s := p.shards[i]
		s.Reset()
		for j := range s.outbox {
			s.outbox[j] = s.outbox[j][:0]
		}
		p.spare = append(p.spare, s)
	}
	p.shards = p.shards[:0]
	p.horizon = 0
	p.windows = 0
	parallelPool.Put(p)
}

// NewShard adds a domain. lookahead is the minimum delay of any cross-shard
// event the domain will ever post, measured from its clock at post time: it
// must be positive (a zero-lookahead domain cannot be synchronized
// conservatively), and shards that never post remotely should pass
// InfiniteLookahead so they never throttle the window. Shards must all be
// created before Run.
func (p *ParallelEngine) NewShard(name string, lookahead Time) *Shard {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard %q lookahead %v must be positive", name, lookahead))
	}
	var s *Shard
	if n := len(p.spare); n > 0 {
		s = p.spare[n-1]
		p.spare = p.spare[:n-1]
		s.id, s.name, s.lookahead, s.parent = len(p.shards), name, lookahead, p
	} else {
		s = &Shard{id: len(p.shards), name: name, lookahead: lookahead, parent: p}
	}
	p.shards = append(p.shards, s)
	for _, sh := range p.shards {
		for len(sh.outbox) < len(p.shards) {
			sh.outbox = append(sh.outbox, nil)
		}
	}
	return s
}

// Windows returns the number of synchronization rounds executed so far. It
// is a pure function of the model (not of the worker count), which makes it
// safe to report in deterministic outputs.
func (p *ParallelEngine) Windows() uint64 { return p.windows }

// Fired returns the number of events the shards have executed so far
// (held events are not counted). Like Windows, it is a pure function of
// the model.
func (p *ParallelEngine) Fired() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.Fired()
	}
	return n
}

// flush delivers every outbox into its destination engine. For one
// destination, pending events are merged across sources by (time, source
// shard, post order) — a total order derived only from model state — and
// posted in that order, so the destination's sequence numbering (and
// therefore its tie-breaking among equal timestamps) is deterministic.
func (p *ParallelEngine) flush() {
	for _, dst := range p.shards {
		msgs := p.scratch[:0]
		for _, src := range p.shards {
			box := src.outbox[dst.id]
			if len(box) == 0 {
				continue
			}
			msgs = append(msgs, box...)
			src.outbox[dst.id] = box[:0]
		}
		if len(msgs) == 0 {
			continue
		}
		// Stable sort: equal timestamps keep their concatenation order,
		// which is (source shard id, post order within the source).
		p.sortXmsgs(msgs)
		for _, m := range msgs {
			dst.Post(m.at, m.kind, m.ctx, m.a, m.b)
		}
		p.scratch = msgs // retain capacity
	}
}

// sortXmsgs stably sorts msgs by firing time without allocating on the
// steady state (sort.SliceStable would allocate a closure and a reflect
// Swapper per call — once per window per destination, the dominant
// allocation source of large sharded runs). Small slices use binary
// insertion; larger ones a bottom-up merge through the reused aux buffer.
func (p *ParallelEngine) sortXmsgs(msgs []xmsg) {
	n := len(msgs)
	const run = 32
	if n <= run {
		insertionSortXmsgs(msgs)
		return
	}
	for i := 0; i < n; i += run {
		end := i + run
		if end > n {
			end = n
		}
		insertionSortXmsgs(msgs[i:end])
	}
	if cap(p.aux) < n {
		p.aux = make([]xmsg, n)
	}
	src, buf := msgs, p.aux[:n]
	for width := run; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid, hi := i+width, i+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeXmsgs(src[i:mid], src[mid:hi], buf[i:hi])
		}
		src, buf = buf, src
	}
	if &src[0] != &msgs[0] {
		copy(msgs, src)
	}
}

// insertionSortXmsgs is a stable insertion sort (strict < moves, so equal
// times keep their input order).
func insertionSortXmsgs(msgs []xmsg) {
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i
		for j > 0 && m.at < msgs[j-1].at {
			msgs[j] = msgs[j-1]
			j--
		}
		msgs[j] = m
	}
}

// mergeXmsgs merges two sorted runs into out, taking from a on ties (left
// run precedes right in the concatenation order, keeping the merge stable).
func mergeXmsgs(a, b, out []xmsg) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].at < a[i].at {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// lbts returns the horizon of the next window: no cross-shard event can be
// created with a timestamp below it. ok is false when no shard has pending
// events (the simulation is finished once mailboxes are also empty).
func (p *ParallelEngine) lbts() (Time, bool) {
	horizon := Time(1)<<62 + 1
	ok := false
	for _, s := range p.shards {
		next, pending := s.nextTime()
		if !pending {
			continue
		}
		ok = true
		cand := next + s.lookahead
		if cand < next { // overflow clamp (InfiniteLookahead far future)
			cand = Time(1) << 62
		}
		if cand < horizon {
			horizon = cand
		}
	}
	return horizon, ok
}

// Run executes the sharded simulation to completion and returns the
// makespan: the latest timestamp any shard fired an event at.
func (p *ParallelEngine) Run() Time {
	if helpers := p.helpers(); helpers > 0 {
		p.kick = make(chan struct{})
		p.exited.Add(helpers)
		for range helpers {
			go p.help(p.kick)
		}
		defer p.stopHelpers()
	}
	for {
		p.flush()
		horizon, ok := p.lbts()
		if !ok {
			break
		}
		p.horizon = horizon
		p.windows++
		p.runWindow()
	}
	var makespan Time
	for _, s := range p.shards {
		if s.Now() > makespan {
			makespan = s.Now()
		}
	}
	return makespan
}

// helpers returns how many goroutines assist the calling one: one fewer
// than the executor width, which never exceeds the shard count.
func (p *ParallelEngine) helpers() int { return min(p.workers, len(p.shards)) - 1 }

// help is a helper goroutine's loop: each kick runs one window's share.
func (p *ParallelEngine) help(kick <-chan struct{}) {
	defer p.exited.Done()
	for range kick {
		p.claim()
		p.done.Done()
	}
}

// stopHelpers ends the run's helpers and returns once all have exited.
func (p *ParallelEngine) stopHelpers() {
	close(p.kick)
	p.kick = nil
	p.exited.Wait()
}

// claim runs the current window's shards until none is left unclaimed.
func (p *ParallelEngine) claim() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.shards) {
			return
		}
		p.shards[i].runBefore(p.horizon)
	}
}

// runWindow fires, in every shard, the local events with timestamps
// strictly below the horizon. Shards share no mutable state (outbox rows
// are written only by their owner), so the executor is free to run them on
// any worker in any order; the result is identical to the serial executor.
func (p *ParallelEngine) runWindow() {
	if p.kick == nil {
		for _, s := range p.shards {
			s.runBefore(p.horizon)
		}
		return
	}
	helpers := p.helpers()
	p.next.Store(0)
	p.done.Add(helpers)
	for range helpers {
		p.kick <- struct{}{}
	}
	p.claim()
	p.done.Wait()
}
