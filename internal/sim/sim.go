// Package sim provides the discrete-event simulation engine used by every
// timed model in this repository (NIC, PCIe, link, LogGOPS). Time is kept
// in integer picoseconds so event ordering is exact and reproducible.
//
// # Event queue
//
// The engine stores pending events in a calendar (bucket) queue tuned for
// the near-monotone schedules these models produce: events are pushed a
// bounded lookahead past the clock, so push and pop are O(1) amortized — a
// bucket append near the drain cursor instead of an O(log n) heap sift.
// Buckets are tiny binary min-heaps, events beyond the bucket horizon wait
// in an overflow heap, and an empty ring jumps the cursor straight to the
// overflow minimum, so sparse millisecond-scale schedules cost no empty
// scans.
//
// The bucket width is adaptive: Engine.SetEventSpacing sizes it to the
// dominant event spacing of the model about to run (the NIC models leave
// the packet-scale default; LogGOPS replays widen to the wire latency),
// keeping the cursor from scanning empty slots when events are sparse and
// buckets from degenerating into heaps when events are dense. Geometry is
// purely a speed knob — the firing order is identical at every width,
// which TestCalendarQueueShiftInvariance pins down — so golden outputs
// never depend on it.
//
// # Determinism contract
//
// Events fire in strictly non-decreasing time, and events with equal
// timestamps fire in scheduling order: every scheduling call is stamped
// with a monotone sequence number and the queue orders by exactly
// (time, seq). Two runs issuing the same schedule calls in the same order
// observe the same firing order, byte for byte, regardless of queue
// internals. Scheduling in the past panics rather than reordering time.
// Events a model holds off the queue (see "Held events") take their
// sequence numbers from the same counter, so they keep their place in
// that order.
//
// # Typed events
//
// The hot path schedules typed events: an event carries a Kind (an index
// into a jump table of handlers registered with RegisterKind at package
// init), a context handle (Engine.Bind) and two scalar arguments. Posting
// one performs zero heap allocations, and the queued event is pointer-free
// so queue traffic incurs no GC write barriers. At and After remain as
// thin compatibility wrappers that bind a func() and dispatch it through
// the same table, for callers and tests that do not need the
// allocation-free path.
//
// # Held events
//
// A model may keep events off the queue when all they would do is update
// its own state: the NIC's DMA engine retires its write completions
// itself instead of posting one event per completion. Such a model is a
// Holder. It stamps each held event with the sequence number the event
// would have carried (Engine.ReserveSeq), so Engine.Precedes orders it
// against the firing event by exactly (time, seq), and it retires a held
// event before acting on anything that event would have changed. The
// engine counts held events wherever event times are visible: a shard's
// earliest pending time (and so the sharded horizon) is the earlier of
// its queue head and its first held event, and when a window or a run
// ends, the held events below its limit retire and the clock advances to
// the latest of them, as firing them would have. A held event is not
// counted by Fired.
//
// # Sharded parallel execution
//
// A large simulation can be partitioned into domains — Shards created
// under a ParallelEngine — each owning a full Engine (its own calendar
// queue, clock and context table) plus the model state its events touch.
// Domains interact only through Shard.PostRemote, which buffers typed
// events in per-destination mailboxes.
//
// Synchronization is conservative, in the windowed LBTS form of the
// null-message protocol: each shard declares a lookahead, the minimum
// delay (from its clock at post time) of any cross-shard event it will
// ever post — for the models here, the minimum cross-domain link latency:
// the fabric wire latency for NIC domains, the PCIe notification round
// trip for host domains, the LogGOPS L parameter for rank domains. Each
// round, the engine computes the horizon min over shards of (earliest
// pending event + lookahead); every cross-shard event created while
// executing below that horizon necessarily lands at or beyond it, so all
// shards may execute their sub-horizon events in parallel with no further
// coordination, then meet at a barrier where mailboxes are flushed.
//
// The determinism contract extends to shards: mailbox flushes merge
// pending events by (time, source shard, post order) — a total order
// derived from model state alone — before assigning destination sequence
// numbers, and within a shard events fire in exact (time, seq) order as
// always. The per-shard firing sequences are therefore a pure function of
// the model: the parallel executor and the serial executor (workers=1,
// shards stepped in index order) fire identical sequences, byte for byte,
// regardless of worker count or OS scheduling.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common duration units expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts a float64 second count to a Time, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * 1e12)) }

// FromNanoseconds converts a float64 nanosecond count to a Time.
func FromNanoseconds(ns float64) Time { return Time(math.Round(ns * 1e3)) }

// Kind identifies a typed event handler registered with RegisterKind.
type Kind uint8

// Ctx is an engine-local handle to an event context object, obtained from
// Engine.Bind. Events store the handle instead of the object so the queue
// holds no pointers: shuffling pointer-free events through the calendar
// buckets costs plain memmoves, with no GC write barriers.
type Ctx int32

// KindFunc is the reserved compatibility kind: its context is a func()
// scheduled through At or After.
const KindFunc Kind = 0

// HandlerFunc executes one typed event. ctx and the two scalars are
// whatever the scheduler passed to Post.
type HandlerFunc func(ctx any, a, b int64)

var (
	kindTable [256]HandlerFunc
	kindNames [256]string
	kindCount = 1 // slot 0 is KindFunc
)

func init() {
	kindTable[KindFunc] = func(ctx any, _, _ int64) { ctx.(func())() }
	kindNames[KindFunc] = "sim.func"
}

// RegisterKind installs a typed event handler in the global jump table and
// returns its Kind. Registration must happen at package init time (the
// table is read without synchronization once engines run); the name is for
// diagnostics only.
func RegisterKind(name string, fn HandlerFunc) Kind {
	if fn == nil {
		panic("sim: RegisterKind with nil handler")
	}
	if kindCount >= len(kindTable) {
		panic("sim: event kind table exhausted")
	}
	k := Kind(kindCount)
	kindCount++
	kindTable[k] = fn
	kindNames[k] = name
	return k
}

// Holder is model state that keeps its own events off the queue (see the
// package doc, "Held events"). Like every object bound to an engine, it
// belongs to that engine (in a sharded run, to that shard). The engine
// calls it between events only.
type Holder interface {
	// NextHeld returns the time of the earliest held event; ok is false
	// when none is held.
	NextHeld() (t Time, ok bool)
	// RetireBefore retires, in (time, seq) order, every held event with
	// a time strictly below limit, and returns the latest time it
	// retired (ok is false when it retired none). It must not schedule
	// events.
	RetireBefore(limit Time) (last Time, ok bool)
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use.
type Engine struct {
	now      Time
	nextSeq  uint64
	cur      uint64 // sequence number of the event firing (or last fired)
	fired    uint64
	ctxs     []any
	funcFree []Ctx // recycled context slots of fired At/After closures
	holders  []Holder
	queue    calQueue
}

// New returns a fresh simulation engine at time zero.
func New() *Engine { return &Engine{} }

// enginePool recycles engines (and their bucket capacity) across
// simulations, so a steady stream of simulations stops allocating queue
// storage once the pooled engines have warmed up.
var enginePool = sync.Pool{New: func() any { return New() }}

// Acquire returns a reset engine from the pool.
func Acquire() *Engine { return enginePool.Get().(*Engine) }

// Release resets the engine and returns it to the pool. The caller must
// not use the engine afterwards.
func Release(e *Engine) {
	e.Reset()
	enginePool.Put(e)
}

// Reset returns the engine to time zero with an empty queue and an empty
// context table, retaining internal capacity.
func (e *Engine) Reset() {
	e.queue.reset()
	for i := range e.ctxs {
		e.ctxs[i] = nil
	}
	e.ctxs = e.ctxs[:0]
	e.funcFree = e.funcFree[:0]
	clear(e.holders)
	e.holders = e.holders[:0]
	e.now = 0
	e.nextSeq = 0
	e.cur = 0
	e.fired = 0
}

// Bind registers obj in the engine's context table and returns its handle
// for Post. A simulation binds each long-lived model object once (the
// object stays reachable until Reset); binding is append-only and O(1).
func (e *Engine) Bind(obj any) Ctx {
	e.ctxs = append(e.ctxs, obj)
	return Ctx(len(e.ctxs) - 1)
}

// Hold registers h, whose held events the engine counts for its clock
// and its shard's horizon until Reset.
func (e *Engine) Hold(h Holder) { e.holders = append(e.holders, h) }

// ReserveSeq returns the sequence number an event posted now would carry,
// for a Holder to stamp a held event with, and consumes it.
func (e *Engine) ReserveSeq() uint64 {
	seq := e.nextSeq
	e.nextSeq++
	return seq
}

// Precedes reports whether an event stamped (t, seq) fires before the
// event now firing, under the exact (time, seq) order.
func (e *Engine) Precedes(t Time, seq uint64) bool {
	return t < e.now || t == e.now && seq < e.cur
}

// nextTime returns the time of the earliest pending event, queued or held.
func (e *Engine) nextTime() (Time, bool) {
	next, ok := e.queue.peekTime()
	for _, h := range e.holders {
		if t, held := h.NextHeld(); held && (!ok || t < next) {
			next, ok = t, true
		}
	}
	return next, ok
}

// retireHeld retires every held event strictly below limit and advances
// the clock to the latest of them, as firing them would have.
func (e *Engine) retireHeld(limit Time) {
	for _, h := range e.holders {
		if t, ok := h.RetireBefore(limit); ok && t > e.now {
			e.now = t
		}
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (held events are
// not counted).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (held events are not
// counted).
func (e *Engine) Pending() int { return e.queue.len() }

// SetEventSpacing adapts the calendar-queue geometry to a model whose
// dominant inter-event spacing is about spacing: the bucket width becomes
// the largest power of two of picoseconds not exceeding it (clamped to
// [2^10, 2^26] ps), so a bucket holds roughly one event and the drain
// cursor stops scanning empty slots. The width is a pure speed knob — it
// never affects event ordering — but it may only be changed while no
// events are pending (resident events were bucketed under the old
// geometry); violating that panics. Reset restores the default geometry,
// tuned for the ~85 ns packet spacing of the NIC models.
func (e *Engine) SetEventSpacing(spacing Time) {
	if e.queue.len() > 0 {
		panic("sim: SetEventSpacing with pending events")
	}
	shift := uint(calShiftMin)
	for shift < calShiftMax && Time(1)<<(shift+1) <= spacing {
		shift++
	}
	e.queue.setShift(shift)
}

// Post schedules a typed event at absolute time t: at t, the handler
// registered for k runs with (ctx, a, b), where ctx is the object bound to
// c. Scheduling in the past panics: it always indicates a model bug and
// silently reordering time would corrupt every downstream statistic.
func (e *Engine) Post(t Time, k Kind, c Ctx, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %s event at %v before now %v", kindNames[k], t, e.now))
	}
	e.queue.push(event{at: t, seq: e.nextSeq, kind: k, ctx: c, a: a, b: b})
	e.nextSeq++
}

// bindFunc binds an At/After closure, reusing the slot of a previously
// fired closure so long-running engines stay O(pending) in context-table
// size, matching the old heap's release-on-pop behaviour.
func (e *Engine) bindFunc(fn func()) Ctx {
	if n := len(e.funcFree); n > 0 {
		c := e.funcFree[n-1]
		e.funcFree = e.funcFree[:n-1]
		e.ctxs[c] = fn
		return c
	}
	return e.Bind(fn)
}

// At schedules fn to run at absolute time t. It is the compatibility
// wrapper over the typed path; the closure is bound as the event context.
func (e *Engine) At(t Time, fn func()) { e.Post(t, KindFunc, e.bindFunc(fn), 0, 0) }

// After schedules fn to run delay picoseconds from now.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Post(e.now+delay, KindFunc, e.bindFunc(fn), 0, 0)
}

// runBefore executes events with timestamps strictly below limit,
// including events those executions schedule below the limit, and
// retires the held events below it. It is the window step of the sharded
// executor: the clock is left at the last fired or retired event (never
// advanced artificially), so a later window continues exactly where a
// plain Run would be.
func (e *Engine) runBefore(limit Time) {
	for e.queue.len() > 0 && e.queue.peek().at < limit {
		e.step()
	}
	e.retireHeld(limit)
}

// Run executes events until the queue is empty, retires every held event
// and returns the final time.
func (e *Engine) Run() Time {
	for e.queue.len() > 0 {
		e.step()
	}
	e.retireHeld(math.MaxInt64)
	return e.now
}

// RunUntil executes events with timestamps <= deadline, including events
// those executions schedule at or before the deadline, and retires the
// held events at or before it. Events beyond the deadline remain queued
// (or held); the clock is left at the deadline or at the last fired or
// retired event, whichever is later — in particular, when the queue drains
// with its last event exactly at the deadline, the clock rests at the
// deadline and a later RunUntil with the same deadline is a no-op.
func (e *Engine) RunUntil(deadline Time) Time {
	for e.queue.len() > 0 && e.queue.peek().at <= deadline {
		e.step()
	}
	e.retireHeld(min(deadline, math.MaxInt64-1) + 1)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.at
	e.cur = ev.seq
	e.fired++
	ctx := e.ctxs[ev.ctx]
	if ev.kind == KindFunc {
		// Release the fired closure and recycle its slot (the typed path
		// binds long-lived model objects once; only closures churn).
		e.ctxs[ev.ctx] = nil
		e.funcFree = append(e.funcFree, ev.ctx)
	}
	kindTable[ev.kind](ctx, ev.a, ev.b)
}
