package core

import (
	"sync/atomic"

	"spinddt/internal/plan"
)

// PlanCounters tallies which lowered execution plans a session's commits
// and flushes actually selected — the observability half of the plan
// subsystem. Counters are atomic (flushes run concurrently) and advisory:
// they never influence selection or timing. A nil receiver is a no-op so
// backends running outside a session (the one-shot wrappers) need no
// special-casing.
type PlanCounters struct {
	planContig, planStride, planOffsets    atomic.Int64
	gatherContig, gatherVector, gatherList atomic.Int64
	fusedPackCRC, fusedUnpackCRC           atomic.Int64
}

// notePlan records the pack/unpack plan selected for a committed handle.
func (c *PlanCounters) notePlan(p *plan.Plan) {
	if c == nil || p == nil {
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
	if c == nil {
		return
	}
	switch k {
	case plan.GatherContig:
		c.gatherContig.Add(1)
	case plan.GatherVector:
		c.gatherVector.Add(1)
	default:
		c.gatherList.Add(1)
	}
}

// noteFusedPack records one pack that computed its wire checksum fused.
func (c *PlanCounters) noteFusedPack() {
	if c != nil {
		c.fusedPackCRC.Add(1)
	}
}

// noteFusedUnpack records one scatter that verified its checksum fused.
func (c *PlanCounters) noteFusedUnpack() {
	if c != nil {
		c.fusedUnpackCRC.Add(1)
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
	// FusedPackCRC/FusedUnpackCRC count transport-path packs and scatters
	// that computed their stream checksum fused with the data movement.
	FusedPackCRC, FusedUnpackCRC int64
}

func (c *PlanCounters) snapshot() SessionStats {
	if c == nil {
		return SessionStats{}
	}
	return SessionStats{
		PlanContig:     c.planContig.Load(),
		PlanStride:     c.planStride.Load(),
		PlanOffsets:    c.planOffsets.Load(),
		GatherContig:   c.gatherContig.Load(),
		GatherVector:   c.gatherVector.Load(),
		GatherList:     c.gatherList.Load(),
		FusedPackCRC:   c.fusedPackCRC.Load(),
		FusedUnpackCRC: c.fusedUnpackCRC.Load(),
	}
}

// Stats returns a snapshot of the session's plan-selection counters: which
// execution plans its committed types lowered to, which gather resolvers
// its sends built, and how many transport packs/scatters ran their CRC
// fused with the copy.
func (s *Session) Stats() SessionStats {
	return s.caches.counters.snapshot()
}
