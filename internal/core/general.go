package core

import (
	"fmt"

	"spinddt/internal/dataloop"
	"spinddt/internal/spin"
)

// emitState gives the general-strategy handlers one reusable emit callback:
// Segment.Process takes a func, and binding a fresh closure over the
// handler arguments on every packet was one of the simulator's top
// allocation sites. The closure is built once per simulation and reads the
// current packet through cur.
type emitState struct {
	cur  *spin.HandlerArgs
	emit func(memOff, streamOff, size int64)
}

func (e *emitState) init() {
	e.emit = func(memOff, streamOff, size int64) {
		a := e.cur
		rel := streamOff - a.StreamOff
		a.DMA.Write(memOff, a.Payload[rel:rel+size])
	}
}

// hpuLocalState implements the HPU-local strategy (Sec. 3.2.4): every vHPU
// owns a private MPITypes segment, eliminating write conflicts without
// synchronization. Under blocked-RR with Δp=1 and one vHPU per physical
// HPU, each vHPU sees every P-th packet and pays a (P-1)-packet catch-up
// per handler; an out-of-order packet behind the segment position resets
// the segment to its initial state.
// Working segments are generation-stamped so a pooled instance rewinds in
// O(1): rewind bumps gen, and the first packet a vHPU's segment sees under
// the new generation resets it to the fresh-build state before processing.
type hpuLocalState struct {
	cost   CostModel
	loop   *dataloop.Dataloop
	segs   []*dataloop.Segment
	gen    uint64
	segGen []uint64
	emitState
}

func newHPULocalState(cost CostModel, loop *dataloop.Dataloop, vhpus int) *hpuLocalState {
	h := &hpuLocalState{
		cost:   cost,
		loop:   loop,
		segs:   make([]*dataloop.Segment, vhpus),
		gen:    1,
		segGen: make([]uint64, vhpus),
	}
	h.init()
	return h
}

func (h *hpuLocalState) rewind() { h.gen++ }

func (h *hpuLocalState) payload(a *spin.HandlerArgs) spin.Result {
	seg := h.segs[a.VHPU]
	if seg == nil {
		seg = dataloop.NewSegment(h.loop)
		h.segs[a.VHPU] = seg
	} else if h.segGen[a.VHPU] != h.gen {
		// Stale from a previous message: behave like a fresh segment.
		seg.Reset()
	}
	h.segGen[a.VHPU] = h.gen
	h.cur = a
	st, err := seg.Process(a.StreamOff, a.StreamOff+int64(len(a.Payload)), h.emit)
	if err != nil {
		return spin.Result{Err: fmt.Errorf("hpu-local: %w", err)}
	}
	b := spin.Breakdown{
		Init:       h.cost.GenInit,
		Setup:      h.cost.GenSetup + times(st.CatchupBlocks, h.cost.GenWalkPerBlock),
		Processing: times(st.EmitRegions, h.cost.GenPerRegion),
	}
	return spin.Result{Runtime: b.Total(), Breakdown: b}
}

// rocpState implements RO-CP, read-only checkpoints (Sec. 3.2.4): the host
// snapshots the segment every Δr bytes; every handler clones the closest
// checkpoint, catches up to its packet (bounded by Δr) and processes
// without writing shared state back, so any packet can run on any HPU in
// parallel. The clone is modeled in the handler cost but executed as a
// CopyFrom into one reusable scratch segment, so the simulator itself
// allocates nothing per packet.
type rocpState struct {
	cost    CostModel
	ckpts   *dataloop.CheckpointSet
	scratch *dataloop.Segment
	emitState
}

func newROCPState(cost CostModel, ckpts *dataloop.CheckpointSet) *rocpState {
	r := &rocpState{cost: cost, ckpts: ckpts, scratch: ckpts.Master(0).Clone()}
	r.init()
	return r
}

// rewind is a no-op: the scratch segment is overwritten from a master
// before every packet, so RO-CP state never leaks across messages.
func (r *rocpState) rewind() {}

func (r *rocpState) payload(a *spin.HandlerArgs) spin.Result {
	i := r.ckpts.Index(a.StreamOff)
	w := r.scratch
	w.CopyFrom(r.ckpts.Master(i)) // local copy of the checkpoint
	r.cur = a
	st, err := w.Process(a.StreamOff, a.StreamOff+int64(len(a.Payload)), r.emit)
	if err != nil {
		return spin.Result{Err: fmt.Errorf("ro-cp: %w", err)}
	}
	b := spin.Breakdown{
		Init:       r.cost.GenInit + r.cost.CopyTime(w.EncodedSize()),
		Setup:      r.cost.GenSetup + times(st.CatchupBlocks, r.cost.GenWalkPerBlock),
		Processing: times(st.EmitRegions, r.cost.GenPerRegion),
	}
	return spin.Result{Runtime: b.Total(), Breakdown: b}
}

// rwcpState implements RW-CP, progressing checkpoints (Sec. 3.2.4): each
// checkpoint is exclusively owned by the vHPU processing its packet
// sequence (blocked-RR with Δp = Δr/k), so in-order packets continue the
// checkpoint state with no copy and no catch-up. A master copy of every
// checkpoint allows reverting when an out-of-order packet arrives behind
// the progressed state.
// The working set is cloned from the masters once, through the segment
// arena, and generation-stamped: rewind bumps gen, and the first packet of
// a checkpoint's sequence under the new generation re-takes the master
// state in place — exactly the no-cost ownership step a fresh build's
// first packet performs.
type rwcpState struct {
	cost    CostModel
	ckpts   *dataloop.CheckpointSet
	working []*dataloop.Segment
	gen     uint64
	wGen    []uint64
	emitState
}

func newRWCPState(cost CostModel, ckpts *dataloop.CheckpointSet) *rwcpState {
	r := &rwcpState{
		cost:    cost,
		ckpts:   ckpts,
		working: ckpts.CloneMasters(),
		gen:     1,
		wGen:    make([]uint64, ckpts.Count()),
	}
	r.init()
	return r
}

func (r *rwcpState) rewind() { r.gen++ }

func (r *rwcpState) payload(a *spin.HandlerArgs) spin.Result {
	i := r.ckpts.Index(a.StreamOff)
	w := r.working[i]
	init := r.cost.GenInit
	if r.wGen[i] != r.gen {
		// First packet of the sequence this message: the vHPU takes
		// ownership of the checkpoint (no modeled copy cost; the master
		// stays pristine for reverts).
		w.CopyFrom(r.ckpts.Master(i))
		r.wGen[i] = r.gen
	}
	if w.Pos() > a.StreamOff {
		// Out-of-order within the sequence: revert to the master.
		w.CopyFrom(r.ckpts.Master(i))
		init += r.cost.CopyTime(w.EncodedSize())
	}
	r.cur = a
	st, err := w.Process(a.StreamOff, a.StreamOff+int64(len(a.Payload)), r.emit)
	if err != nil {
		return spin.Result{Err: fmt.Errorf("rw-cp: %w", err)}
	}
	b := spin.Breakdown{
		Init:       init,
		Setup:      r.cost.GenSetup + times(st.CatchupBlocks, r.cost.GenWalkPerBlock),
		Processing: times(st.EmitRegions, r.cost.GenPerRegion),
	}
	return spin.Result{Runtime: b.Total(), Breakdown: b}
}
