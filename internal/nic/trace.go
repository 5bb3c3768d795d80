package nic

import (
	"fmt"
	"strings"

	"spinddt/internal/sim"
)

// TraceKind labels a trace event.
type TraceKind int

// Trace event kinds, in pipeline order.
const (
	TracePktArrival TraceKind = iota
	TraceMatch
	TraceHER
	TraceHandlerStart
	TraceHandlerEnd
	TraceDMAIssue
	TraceCompletion
)

func (k TraceKind) String() string {
	switch k {
	case TracePktArrival:
		return "pkt-arrival"
	case TraceMatch:
		return "match"
	case TraceHER:
		return "her"
	case TraceHandlerStart:
		return "handler-start"
	case TraceHandlerEnd:
		return "handler-end"
	case TraceDMAIssue:
		return "dma-issue"
	case TraceCompletion:
		return "completion"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one recorded step of the NIC pipeline.
type TraceEvent struct {
	At   sim.Time
	Kind TraceKind
	// Pkt is the packet index (-1 for message-level events).
	Pkt int
	// VHPU is the executing virtual HPU (-1 when not applicable).
	VHPU int
	// Dur is the event duration where meaningful (handler runtime).
	Dur sim.Time
	// Reqs/Bytes describe DMA issues.
	Reqs  int64
	Bytes int64
}

// Trace records the pipeline events of one simulated receive. Attach one
// to Config.Trace before running it; a nil trace disables recording.
type Trace struct {
	Events []TraceEvent
	// Limit caps the recorded events (0 = unlimited).
	Limit int
}

func (t *Trace) add(ev TraceEvent) {
	if t == nil {
		return
	}
	if t.Limit > 0 && len(t.Events) >= t.Limit {
		return
	}
	t.Events = append(t.Events, ev)
}

// String renders the trace chronologically.
func (t *Trace) String() string {
	var b strings.Builder
	for _, ev := range t.Events {
		fmt.Fprintf(&b, "%12s  %-14s", ev.At, ev.Kind)
		if ev.Pkt >= 0 {
			fmt.Fprintf(&b, " pkt=%-5d", ev.Pkt)
		}
		if ev.VHPU >= 0 {
			fmt.Fprintf(&b, " vhpu=%-4d", ev.VHPU)
		}
		if ev.Dur > 0 {
			fmt.Fprintf(&b, " dur=%v", ev.Dur)
		}
		if ev.Reqs > 0 {
			fmt.Fprintf(&b, " reqs=%d bytes=%d", ev.Reqs, ev.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary aggregates the trace into per-kind counts and the handler
// concurrency profile (how many handlers ran simultaneously).
func (t *Trace) Summary() string {
	counts := map[TraceKind]int{}
	var running, peak int
	for _, ev := range t.Events {
		counts[ev.Kind]++
		switch ev.Kind {
		case TraceHandlerStart:
			running++
			if running > peak {
				peak = running
			}
		case TraceHandlerEnd:
			running--
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events", len(t.Events))
	for k := TracePktArrival; k <= TraceCompletion; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(&b, ", %d %s", counts[k], k)
		}
	}
	fmt.Fprintf(&b, "; peak handler concurrency %d", peak)
	return b.String()
}
