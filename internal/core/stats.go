package core

import (
	"sync/atomic"

	"spinddt/internal/plan"
)

// PlanCounters tallies which lowered execution plans a session's commits
// and flushes actually selected — the observability half of the plan
// subsystem. Counters are atomic (flushes run concurrently) and advisory:
// they never influence selection or timing.
type PlanCounters struct {
	planContig, planStride, planOffsets    atomic.Int64
	gatherContig, gatherVector, gatherList atomic.Int64
}

// notePlan records the pack/unpack plan selected for a committed handle.
func (c *PlanCounters) notePlan(p *plan.Plan) {
	if p == nil {
		return
	}
	switch p.Kind() {
	case plan.Contig:
		c.planContig.Add(1)
	case plan.Stride:
		c.planStride.Add(1)
	default:
		c.planOffsets.Add(1)
	}
}

// noteGather records the gather resolver selected for a sender build.
func (c *PlanCounters) noteGather(k plan.GatherKind) {
	switch k {
	case plan.GatherContig:
		c.gatherContig.Add(1)
	case plan.GatherVector:
		c.gatherVector.Add(1)
	default:
		c.gatherList.Add(1)
	}
}

// SessionStats is a snapshot of a session's plan-selection counters.
type SessionStats struct {
	// PlanContig/PlanStride/PlanOffsets count committed handles by the
	// pack/unpack plan their datatype lowered to.
	PlanContig, PlanStride, PlanOffsets int64
	// GatherContig/GatherVector/GatherList count sender gather builds by
	// resolver family (once per built (handle, count), not per message).
	GatherContig, GatherVector, GatherList int64
}

func (c *PlanCounters) snapshot() SessionStats {
	return SessionStats{
		PlanContig:   c.planContig.Load(),
		PlanStride:   c.planStride.Load(),
		PlanOffsets:  c.planOffsets.Load(),
		GatherContig: c.gatherContig.Load(),
		GatherVector: c.gatherVector.Load(),
		GatherList:   c.gatherList.Load(),
	}
}

// Stats returns a snapshot of the session's plan-selection counters: which
// execution plans its committed types lowered to and which gather
// resolvers its sends built.
func (s *Session) Stats() SessionStats {
	return s.caches.counters.snapshot()
}
