package goal_test

// This file holds GOAL — the Group Operation Assembly Language of Hoefler,
// Siebert & Lumsdaine (ICPP'09), which the paper uses to express
// application traces for LogGOPSim ("We use these two parameters to build
// a GOAL trace for FFT2D", Sec. 5.4). A GOAL program gives every rank a
// set of labelled operations (calc, send, recv) with explicit dependency
// edges; unlike a sequential schedule, independent operations may
// overlap. Its dependency-driven executor computes LogGOPS costs on its
// own, so a chain-dependency program is an independent oracle for
// loggops.Run. Nothing but these tests builds GOAL programs, so the
// directory holds no non-test code.

import (
	"fmt"
	"testing"

	"spinddt/internal/loggops"
	"spinddt/internal/sim"
)

// OpKind enumerates GOAL operation kinds.
type OpKind int

// The GOAL operation kinds.
const (
	Calc OpKind = iota
	Send
	Recv
)

// Op is one labelled operation of a rank.
type Op struct {
	// Label names the op within its rank (the target of requires edges).
	Label string
	Kind  OpKind
	// Dur is the computation time (Calc) or post-arrival processing
	// charged on the CPU (Recv, e.g. datatype unpack).
	Dur sim.Time
	// Peer is the destination (Send) or source (Recv) rank.
	Peer int
	// Bytes is the message size (Send/Recv).
	Bytes int64
	// Tag matches sends to recvs.
	Tag int
	// Requires lists labels of same-rank ops that must complete first.
	Requires []string
}

// Program is a GOAL schedule: one op list per rank.
type Program struct {
	Ranks [][]Op
}

// Validate checks labels, dependency references and peer ranges.
func (p *Program) Validate() error {
	if len(p.Ranks) == 0 {
		return fmt.Errorf("goal: empty program")
	}
	for r, ops := range p.Ranks {
		labels := make(map[string]bool, len(ops))
		for _, op := range ops {
			if op.Label == "" {
				return fmt.Errorf("goal: rank %d has an unlabelled op", r)
			}
			if labels[op.Label] {
				return fmt.Errorf("goal: rank %d duplicates label %q", r, op.Label)
			}
			labels[op.Label] = true
			if op.Kind != Calc {
				if op.Peer < 0 || op.Peer >= len(p.Ranks) {
					return fmt.Errorf("goal: rank %d op %q peer %d out of range", r, op.Label, op.Peer)
				}
				if op.Bytes <= 0 {
					return fmt.Errorf("goal: rank %d op %q has %d bytes", r, op.Label, op.Bytes)
				}
			}
		}
		for _, op := range ops {
			for _, req := range op.Requires {
				if !labels[req] {
					return fmt.Errorf("goal: rank %d op %q requires unknown label %q", r, op.Label, req)
				}
				if req == op.Label {
					return fmt.Errorf("goal: rank %d op %q requires itself", r, op.Label)
				}
			}
		}
	}
	return nil
}

// Sequential converts a loggops sequential schedule into a GOAL program
// with chain dependencies (each op requires its predecessor).
func Sequential(sched loggops.Schedule) *Program {
	p := &Program{Ranks: make([][]Op, len(sched))}
	for r, ops := range sched {
		for i, op := range ops {
			g := Op{Label: fmt.Sprintf("o%d", i)}
			switch op.Kind {
			case loggops.OpCalc:
				g.Kind = Calc
				g.Dur = op.Dur
			case loggops.OpSend:
				g.Kind = Send
				g.Peer = op.Peer
				g.Bytes = op.Bytes
				g.Tag = op.Tag
			case loggops.OpRecv:
				g.Kind = Recv
				g.Peer = op.Peer
				g.Tag = op.Tag
				g.Dur = op.Dur
				g.Bytes = 1 // size is carried by the matching send
			}
			if i > 0 {
				g.Requires = []string{fmt.Sprintf("o%d", i-1)}
			}
			p.Ranks[r] = append(p.Ranks[r], g)
		}
	}
	return p
}

// Result reports a GOAL program execution.
type Result struct {
	// Makespan is the completion time of the last operation.
	Makespan sim.Time
	// RankFinish holds each rank's last completion.
	RankFinish []sim.Time
	// Messages counts delivered messages.
	Messages int64
}

type msgKey struct {
	src, dst, tag int
}

// execRank is the per-rank execution state.
type execRank struct {
	ops      []Op
	pending  []int // unmet dependency count per op
	earliest []sim.Time
	done     []bool
	deps     map[string][]int // label -> dependent op indices
	byLabel  map[string]int
	ready    []int
	parked   map[msgKey][]int // ready recvs waiting for a message
	cpuFree  sim.Time
	nicFree  sim.Time
	finished int
}

// Execute runs the program under the LogGOPS model with true dependency
// semantics: operations start when their requires-edges are satisfied, the
// rank CPU serializes them in readiness order (list scheduling), and
// receives that are ready but unmatched park without blocking independent
// work — the behaviour that lets GOAL traces overlap communication with
// computation.
func Execute(params loggops.Params, p *Program) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.Ranks)
	ranks := make([]*execRank, n)
	for r, ops := range p.Ranks {
		er := &execRank{
			ops:      ops,
			pending:  make([]int, len(ops)),
			earliest: make([]sim.Time, len(ops)),
			done:     make([]bool, len(ops)),
			deps:     make(map[string][]int),
			byLabel:  make(map[string]int, len(ops)),
			parked:   make(map[msgKey][]int),
		}
		for i, op := range ops {
			er.byLabel[op.Label] = i
			er.pending[i] = len(op.Requires)
		}
		for i, op := range ops {
			for _, req := range op.Requires {
				er.deps[req] = append(er.deps[req], i)
			}
		}
		for i := range ops {
			if er.pending[i] == 0 {
				er.ready = append(er.ready, i)
			}
		}
		ranks[r] = er
	}

	arrivals := make(map[msgKey][]sim.Time)
	res := Result{RankFinish: make([]sim.Time, n)}

	complete := func(er *execRank, idx int, at sim.Time) {
		er.done[idx] = true
		er.finished++
		if at > er.cpuFree {
			er.cpuFree = at
		}
		for _, dep := range er.deps[er.ops[idx].Label] {
			if er.earliest[dep] < at {
				er.earliest[dep] = at
			}
			er.pending[dep]--
			if er.pending[dep] == 0 {
				er.ready = append(er.ready, dep)
			}
		}
	}

	// Worklist fixpoint: all costs are deterministic time algebra, so
	// ranks can be advanced repeatedly until nothing progresses. Within a
	// rank, ready operations run in list-scheduling order: the op with the
	// earliest feasible start goes first, so a receive whose message is
	// still in flight never delays independent ready work.
	const never = sim.Time(1) << 62
	progress := true
	for progress {
		progress = false
		for r, er := range ranks {
			// Receives parked on now-known arrivals become ready again.
			for key, queue := range er.parked {
				if len(queue) > 0 && len(arrivals[key]) > 0 {
					er.ready = append(er.ready, queue...)
					er.parked[key] = nil
					progress = true
				}
			}

			for len(er.ready) > 0 {
				// Select the ready op with the earliest feasible start.
				best, bestStart := -1, never
				for _, idx := range er.ready {
					op := er.ops[idx]
					start := maxTime(er.cpuFree, er.earliest[idx])
					if op.Kind == Recv {
						key := msgKey{src: op.Peer, dst: r, tag: op.Tag}
						times := arrivals[key]
						if len(times) == 0 {
							continue // arrival unknown: not schedulable yet
						}
						start = maxTime(start, times[0])
					}
					if start < bestStart {
						best, bestStart = idx, start
					}
				}
				if best == -1 {
					// Only arrival-less receives remain: park them all.
					for _, idx := range er.ready {
						op := er.ops[idx]
						key := msgKey{src: op.Peer, dst: r, tag: op.Tag}
						er.parked[key] = append(er.parked[key], idx)
					}
					er.ready = er.ready[:0]
					break
				}
				er.ready = removeIdx(er.ready, best)
				op := er.ops[best]
				switch op.Kind {
				case Calc:
					start := maxTime(er.cpuFree, er.earliest[best])
					er.cpuFree = start + op.Dur
					complete(er, best, er.cpuFree)

				case Send:
					start := maxTime(er.cpuFree, er.nicFree, er.earliest[best])
					injected := start + params.O
					er.cpuFree = injected
					gap := params.G
					if bt := params.ByteTime(op.Bytes); bt > gap {
						gap = bt
					}
					er.nicFree = injected + gap
					key := msgKey{src: r, dst: op.Peer, tag: op.Tag}
					arrivals[key] = append(arrivals[key], injected+params.L+params.ByteTime(op.Bytes))
					res.Messages++
					complete(er, best, injected)

				case Recv:
					key := msgKey{src: op.Peer, dst: r, tag: op.Tag}
					arrival := arrivals[key][0]
					arrivals[key] = arrivals[key][1:]
					start := maxTime(er.cpuFree, er.earliest[best], arrival)
					er.cpuFree = start + params.O + op.Dur
					complete(er, best, er.cpuFree)
				}
				progress = true
			}
		}
	}

	for r, er := range ranks {
		if er.finished != len(er.ops) {
			return Result{}, fmt.Errorf("goal: rank %d deadlocked with %d of %d ops done",
				r, er.finished, len(er.ops))
		}
		fin := er.cpuFree
		if er.nicFree > fin {
			fin = er.nicFree
		}
		res.RankFinish[r] = fin
		if fin > res.Makespan {
			res.Makespan = fin
		}
	}
	return res, nil
}

func maxTime(ts ...sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// removeIdx deletes the first occurrence of v from xs, preserving order.
func removeIdx(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

func params() loggops.Params {
	return loggops.Params{
		L:        500 * sim.Nanosecond,
		O:        100 * sim.Nanosecond,
		G:        80 * sim.Nanosecond,
		GPerByte: 1 / 25e9,
	}
}

func ns(v int64) sim.Time { return sim.Time(v) * sim.Nanosecond }

func TestValidate(t *testing.T) {
	good := &Program{Ranks: [][]Op{
		{{Label: "a", Kind: Calc, Dur: ns(10)}, {Label: "b", Kind: Send, Peer: 1, Bytes: 64, Requires: []string{"a"}}},
		{{Label: "r", Kind: Recv, Peer: 0, Bytes: 64}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Program{
		{}, // empty
		{Ranks: [][]Op{{{Label: "", Kind: Calc}}}},
		{Ranks: [][]Op{{{Label: "a", Kind: Calc}, {Label: "a", Kind: Calc}}}},
		{Ranks: [][]Op{{{Label: "a", Kind: Send, Peer: 5, Bytes: 1}}}},
		{Ranks: [][]Op{{{Label: "a", Kind: Send, Peer: 0, Bytes: 0}}}},
		{Ranks: [][]Op{{{Label: "a", Kind: Calc, Requires: []string{"zz"}}}}},
		{Ranks: [][]Op{{{Label: "a", Kind: Calc, Requires: []string{"a"}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad program %d validated", i)
		}
	}
}

func TestExecuteMatchesSequentialLogGOPS(t *testing.T) {
	// A chain-dependency GOAL program must agree exactly with the
	// sequential loggops executor.
	sched := loggops.Schedule{
		{loggops.Calc(ns(1000)), loggops.Send(1, 4096, 0), loggops.Recv(1, 1, ns(500))},
		{loggops.Recv(0, 0, ns(200)), loggops.Calc(ns(300)), loggops.Send(0, 4096, 1)},
	}
	want, err := loggops.Run(params(), sched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(params(), Sequential(sched))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("GOAL chain makespan %v, loggops %v", got.Makespan, want.Makespan)
	}
	if got.Messages != want.Messages {
		t.Fatalf("messages %d vs %d", got.Messages, want.Messages)
	}
}

func TestDAGOverlapsIndependentWork(t *testing.T) {
	// Rank 1 waits for a message and has an independent 10us calc. A
	// sequential schedule (recv before calc) serializes them; the DAG
	// overlaps the calc with the message latency.
	p := params()
	compute := ns(10000)
	delayedSend := &Program{Ranks: [][]Op{
		{{Label: "wait", Kind: Calc, Dur: ns(8000)},
			{Label: "s", Kind: Send, Peer: 1, Bytes: 64, Requires: []string{"wait"}}},
		{{Label: "r", Kind: Recv, Peer: 0, Bytes: 64},
			{Label: "c", Kind: Calc, Dur: compute}},
	}}
	dag, err := Execute(p, delayedSend)
	if err != nil {
		t.Fatal(err)
	}
	seq := loggops.Schedule{
		{loggops.Calc(ns(8000)), loggops.Send(1, 64, 0)},
		{loggops.Recv(0, 0, 0), loggops.Calc(compute)},
	}
	seqRes, err := loggops.Run(p, seq)
	if err != nil {
		t.Fatal(err)
	}
	if dag.Makespan >= seqRes.Makespan {
		t.Fatalf("DAG (%v) should overlap and beat sequential (%v)", dag.Makespan, seqRes.Makespan)
	}
	// The overlap saves roughly the sender's delay.
	if saved := seqRes.Makespan - dag.Makespan; saved < ns(7000) {
		t.Fatalf("only saved %v", saved)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := &Program{Ranks: [][]Op{
		{{Label: "r", Kind: Recv, Peer: 1, Bytes: 1}},
		{{Label: "r", Kind: Recv, Peer: 0, Bytes: 1}},
	}}
	if _, err := Execute(params(), p); err == nil {
		t.Fatal("communication deadlock not detected")
	}
	cyclic := &Program{Ranks: [][]Op{{
		{Label: "a", Kind: Calc, Requires: []string{"b"}},
		{Label: "b", Kind: Calc, Requires: []string{"a"}},
	}}}
	if _, err := Execute(params(), cyclic); err == nil {
		t.Fatal("dependency cycle not detected")
	}
}

func TestFFT2DTraceThroughGOAL(t *testing.T) {
	// The paper's methodology: build the FFT2D trace as GOAL, execute it
	// under LogGOPS. The sequential GOAL form must match loggops exactly.
	cfg := loggops.FFT2DConfig{
		N: 1024, ElemBytes: 16, FlopRate: 8e9,
		UnpackPerMsg: ns(2000),
		Net:          params(),
	}
	p := 8
	sched := cfg.Schedule(p)
	want, err := loggops.Run(cfg.Net, sched)
	if err != nil {
		t.Fatal(err)
	}
	prog := Sequential(sched)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := Execute(cfg.Net, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("GOAL FFT2D makespan %v, loggops %v", got.Makespan, want.Makespan)
	}
}
