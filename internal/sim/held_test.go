package sim

import (
	"reflect"
	"testing"
)

// holdModel is one shard's model for the held-event test: every step books
// a FIFO link whose completion lowers an outstanding count. The eager
// flavor posts each completion as an event; the held flavor is a Holder
// that keeps completions in a FIFO and retires the ones preceding each
// step itself. Both log the count at every step and completion, the way
// the NIC's DMA engine samples its queue depth.
type holdModel struct {
	s     *Shard
	self  Ctx
	peer  *holdModel
	la    Time
	eager bool
	left  int
	busy  Time
	held  []heldStamp
	depth int
	steps uint64
	log   []holdSample
}

type heldStamp struct {
	at  Time
	seq uint64
}

type holdSample struct {
	at    Time
	depth int
}

var kindHoldStep, kindHoldDone Kind

func init() {
	kindHoldStep = RegisterKind("sim.testHoldStep", func(ctx any, a, _ int64) {
		ctx.(*holdModel).step(uint64(a))
	})
	kindHoldDone = RegisterKind("sim.testHoldDone", func(ctx any, _, _ int64) {
		m := ctx.(*holdModel)
		m.depth--
		m.log = append(m.log, holdSample{m.s.Now(), m.depth})
	})
}

func (m *holdModel) step(r uint64) {
	now := m.s.Now()
	for len(m.held) > 0 && m.s.Precedes(m.held[0].at, m.held[0].seq) {
		m.retireHead()
	}
	m.steps++
	m.depth++
	m.log = append(m.log, holdSample{now, m.depth})
	m.busy = max(m.busy, now) + Time(1+r%900)
	if m.eager {
		m.s.Post(m.busy, kindHoldDone, m.self, 0, 0)
	} else {
		m.held = append(m.held, heldStamp{m.busy, m.s.ReserveSeq()})
	}
	if m.left == 0 {
		return
	}
	m.left--
	r = mix(r)
	switch r % 5 {
	case 0:
		m.s.Post(m.busy, kindHoldStep, m.self, int64(r>>1), 0) // ties the completion just booked
	case 1:
		m.s.Post(now, kindHoldStep, m.self, int64(r>>1), 0)
	case 2:
		m.s.Post(now+Time(r>>40%3000), kindHoldStep, m.self, int64(r>>1), 0)
	default:
		m.s.PostRemote(m.peer.s, now+m.la+Time(r>>40%2000), kindHoldStep, m.peer.self, int64(r>>1), 0)
	}
}

func (m *holdModel) retireHead() {
	m.depth--
	m.log = append(m.log, holdSample{m.held[0].at, m.depth})
	m.held = m.held[1:]
}

func (m *holdModel) NextHeld() (Time, bool) {
	if len(m.held) == 0 {
		return 0, false
	}
	return m.held[0].at, true
}

func (m *holdModel) RetireBefore(limit Time) (last Time, ok bool) {
	for len(m.held) > 0 && m.held[0].at < limit {
		last, ok = m.held[0].at, true
		m.retireHead()
	}
	return last, ok
}

// holdRun is what one sharded run of the hold models observed.
type holdRun struct {
	logs     [][]holdSample
	clocks   []Time
	fired    []uint64
	steps    []uint64
	windows  uint64
	makespan Time
}

func runHoldModels(eager bool, workers int) holdRun {
	pe := NewParallel(workers)
	las := []Time{700, 1900, 3100}
	ms := make([]*holdModel, len(las))
	for i, la := range las {
		m := &holdModel{s: pe.NewShard("hold", la), la: la, eager: eager, left: 4000}
		m.self = m.s.Bind(m)
		if !eager {
			m.s.Hold(m)
		}
		ms[i] = m
	}
	for i, m := range ms {
		m.peer = ms[(i+1)%len(ms)]
		m.s.Post(Time(i)*100, kindHoldStep, m.self, int64(mix(uint64(i))>>1), 0)
	}
	var r holdRun
	r.makespan = pe.Run()
	r.windows = pe.Windows()
	for _, m := range ms {
		r.logs = append(r.logs, m.log)
		r.clocks = append(r.clocks, m.s.Now())
		r.fired = append(r.fired, m.s.Fired())
		r.steps = append(r.steps, m.steps)
	}
	return r
}

// TestHeldEventsMatchQueuedEvents runs the same sharded model with its
// completions as events and held off the queue: logs, per-shard clocks,
// windows and makespan must agree at every executor width, and the held
// run fires one event fewer per completion.
func TestHeldEventsMatchQueuedEvents(t *testing.T) {
	for _, workers := range []int{1, 3} {
		queued, held := runHoldModels(true, workers), runHoldModels(false, workers)
		if !reflect.DeepEqual(held.logs, queued.logs) {
			t.Errorf("workers=%d: held completions log differently from queued ones", workers)
		}
		if !reflect.DeepEqual(held.clocks, queued.clocks) || held.makespan != queued.makespan {
			t.Errorf("workers=%d: clocks %v makespan %v, queued %v makespan %v", workers, held.clocks, held.makespan, queued.clocks, queued.makespan)
		}
		if held.windows != queued.windows {
			t.Errorf("workers=%d: %d windows, queued %d", workers, held.windows, queued.windows)
		}
		for i := range held.fired {
			if queued.fired[i]-held.fired[i] != held.steps[i] {
				t.Errorf("workers=%d shard %d: %d events, queued %d, for %d completions", workers, i, held.fired[i], queued.fired[i], held.steps[i])
			}
		}
		t.Logf("workers=%d: %d windows, makespan %v, fired %v (queued %v)", workers, held.windows, held.makespan, held.fired, queued.fired)
	}
}
