package nic

import (
	"math/rand"
	"reflect"
	"testing"

	"spinddt/internal/pcie"
	"spinddt/internal/sim"
)

// This file checks the DMA engine's held write completions against the
// model they replaced: one completion event per write burst.

// kindEagerDone is the reference's completion event: a = requests retired.
var kindEagerDone = sim.RegisterKind("nic.test.eagerDone", func(ctx any, a, _ int64) {
	d := ctx.(*dmaEngine)
	d.adjustDepth(-int(a), d.eng.Now())
})

// eagerWrite is the reference write: dmaEngine.write's timing and
// accounting, with a completion event posted per burst instead of a held
// completion.
func eagerWrite(d *dmaEngine, self sim.Ctx, st *DMAStats, reqs, bytes int64) sim.Time {
	now := d.eng.Now()
	_, chanEnd := d.channels.Acquire(now, sim.Time(reqs)*d.perReq)
	_, end := d.link.Acquire(chanEnd, d.pcie.BurstTime(reqs, bytes))
	st.Writes += reqs
	st.Bytes += bytes
	st.WireBytes += bytes + reqs*d.pcie.TLPHeaderBytes
	d.adjustDepth(int(reqs), now)
	if d.depth > st.MaxQueueDepth {
		st.MaxQueueDepth = d.depth
	}
	d.eng.Post(end, kindEagerDone, self, reqs, 0)
	return end
}

// burstStreams issues write bursts from several interleaved streams, each
// keeping one issue event pending. An issue predicts its burst's
// completion on shadow servers, so it can schedule its stream's next
// issue at exactly that completion time, posted before the burst (the
// issue fires first) or after it (the completion fires first).
type burstStreams struct {
	t     *testing.T
	d     *dmaEngine
	self  sim.Ctx
	dself sim.Ctx // the engine's handle for the reference's events
	eager bool
	rng   *rand.Rand
	left  int
	msgs  []DMAStats

	shadowCh   *sim.MultiServer
	shadowLink sim.Server
	peakHeld   int
}

// kindStreamIssue is one stream's issue: a = stream. It is registered in
// init because the handler posts the same kind.
var kindStreamIssue sim.Kind

func init() {
	kindStreamIssue = sim.RegisterKind("nic.test.streamIssue", func(ctx any, a, _ int64) {
		ctx.(*burstStreams).issue(int(a))
	})
}

func (bs *burstStreams) issue(stream int) {
	if bs.left == 0 {
		return
	}
	bs.left--
	d := bs.d
	eng := d.eng
	reqs := 1 + bs.rng.Int63n(8)
	bytes := reqs*32 + bs.rng.Int63n(reqs*480)
	now := eng.Now()
	_, chanEnd := bs.shadowCh.Acquire(now, sim.Time(reqs)*d.perReq)
	_, end := bs.shadowLink.Acquire(chanEnd, d.pcie.BurstTime(reqs, bytes))
	next := func(at sim.Time) { eng.Post(at, kindStreamIssue, bs.self, int64(stream), 0) }

	// Busy phases (a tenth of the writes) issue back to back and pile
	// bursts up; otherwise the next issue lands on the completion, ties
	// the current time or waits for the queue to drain.
	busy := (bs.left/1000)%10 == 0
	mode := bs.rng.Intn(5)
	if !busy && mode == 0 {
		next(end) // before the burst: the issue precedes the completion
	}
	st := &bs.msgs[stream%len(bs.msgs)]
	var got sim.Time
	if bs.eager {
		got = eagerWrite(d, bs.dself, st, reqs, bytes)
	} else {
		got = d.write(st, reqs, bytes)
		bs.peakHeld = max(bs.peakHeld, d.heldLen)
	}
	if got != end {
		bs.t.Fatalf("burst completes at %v, shadow servers predicted %v", got, end)
	}
	switch {
	case busy:
		next(now + sim.Time(bs.rng.Int63n(3))*sim.Nanosecond)
	case mode == 1:
		next(end) // after the burst: the completion precedes the issue
	case mode == 2:
		next(now) // ties the current event
	case mode == 3:
		next(now + sim.Time(bs.rng.Int63n(40))*sim.Nanosecond)
	case mode == 4:
		next(now + sim.Time(1+bs.rng.Int63n(3000))*sim.Nanosecond)
	}
}

// dmaRun is what one driven run observed.
type dmaRun struct {
	midClock, clock sim.Time
	midSamples      []QueueSample
	samples         []QueueSample
	msgs            []DMAStats
	fired           uint64
	depth, stride   int
	peakHeld        int
	heldCap         int
}

// driveDMA issues write bursts from five streams on a fresh engine,
// runs to mid with RunUntil, then to the end.
func driveDMA(t *testing.T, eager, series bool, writes int, mid sim.Time) dmaRun {
	eng := sim.New()
	p := pcie.DefaultConfig()
	const channels, perReq = 4, 20 * sim.Nanosecond
	d := newDMAEngine(eng, p, channels, perReq, series)
	bs := &burstStreams{
		t: t, d: d, eager: eager, rng: rand.New(rand.NewSource(7)), left: writes,
		msgs: make([]DMAStats, 3), shadowCh: sim.NewMultiServer(channels),
	}
	bs.self = eng.Bind(bs)
	bs.dself = eng.Bind(d)
	for s := range 5 {
		eng.Post(sim.Time(s)*7*sim.Nanosecond, kindStreamIssue, bs.self, int64(s), 0)
	}
	var r dmaRun
	r.midClock = eng.RunUntil(mid)
	r.midSamples = append([]QueueSample(nil), d.stats.Samples...)
	r.clock = eng.Run()
	if bs.left != 0 {
		t.Fatalf("%d writes never issued", bs.left)
	}
	r.samples = d.series()
	r.msgs, r.fired = bs.msgs, eng.Fired()
	r.depth, r.stride = d.depth, d.sampleStride
	r.peakHeld, r.heldCap = bs.peakHeld, len(d.held)
	return r
}

// TestHeldCompletionsMatchEagerEvents drives the DMA engine and the
// one-event-per-completion reference through the same interleaved issue
// streams and requires the same depth series, per-message peaks and
// clocks; the held ring must stay sized by the outstanding bursts.
func TestHeldCompletionsMatchEagerEvents(t *testing.T) {
	const writes = 100_000
	for _, series := range []bool{false, true} {
		lazy := driveDMA(t, false, series, writes, 2*sim.Millisecond)
		ref := driveDMA(t, true, series, writes, 2*sim.Millisecond)
		if lazy.midClock != ref.midClock || lazy.clock != ref.clock {
			t.Errorf("series=%v: clocks %v then %v, reference %v then %v", series, lazy.midClock, lazy.clock, ref.midClock, ref.clock)
		}
		if !reflect.DeepEqual(lazy.msgs, ref.msgs) {
			t.Errorf("series=%v: per-message stats %+v, reference %+v", series, lazy.msgs, ref.msgs)
		}
		if !reflect.DeepEqual(lazy.midSamples, ref.midSamples) || !reflect.DeepEqual(lazy.samples, ref.samples) {
			t.Errorf("series=%v: depth series differs from the reference (%d/%d samples, reference %d/%d)",
				series, len(lazy.midSamples), len(lazy.samples), len(ref.midSamples), len(ref.samples))
		}
		if lazy.depth != 0 || ref.depth != 0 || lazy.stride != ref.stride {
			t.Errorf("series=%v: final depth %d stride %d, reference %d stride %d", series, lazy.depth, lazy.stride, ref.depth, ref.stride)
		}
		if series && lazy.stride < 4 {
			t.Errorf("series stride %d: the run never forced two decimations", lazy.stride)
		}
		if ref.fired-lazy.fired != writes {
			t.Errorf("series=%v: %d events fired, reference %d: want one fewer per write", series, lazy.fired, ref.fired)
		}
		if lazy.peakHeld <= 16 || lazy.heldCap >= 2*lazy.peakHeld {
			t.Errorf("series=%v: held ring holds %d slots for a peak of %d outstanding bursts", series, lazy.heldCap, lazy.peakHeld)
		}
		t.Logf("series=%v: clock %v/%v, %d/%d samples, stride %d, peak %d outstanding bursts, ring %d, per-message peaks %d/%d/%d",
			series, lazy.midClock, lazy.clock, len(lazy.midSamples), len(lazy.samples), lazy.stride, lazy.peakHeld, lazy.heldCap,
			lazy.msgs[0].MaxQueueDepth, lazy.msgs[1].MaxQueueDepth, lazy.msgs[2].MaxQueueDepth)
	}
}
