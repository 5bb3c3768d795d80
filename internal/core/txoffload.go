package core

import (
	"fmt"

	"spinddt/internal/ddt"
	"spinddt/internal/plan"
	"spinddt/internal/spin"
)

// This file builds the sender half of the symmetric offload: a gather
// execution context whose payload handler resolves an outgoing packet's
// contiguous SOURCE regions, fetches them over the PCIe read path
// (HandlerArgs.DMARead) and fills the packet's slice of the wire stream.
// It is the state a PtlProcessPut references on the sender NIC
// (Sec. 3.1.2). The resolver and its cost model are the receive side's
// (specialized.go): one resolver, two handlers.

// TxOffload is a built gather context plus its bookkeeping.
type TxOffload struct {
	Ctx  *spin.ExecutionContext
	Prep HostPrep
	// Kind labels the gather variant ("vector", "list", "contiguous").
	Kind string
	// Blocks is the number of contiguous source regions of the layout.
	Blocks int64
	// Plan is the lowered gather resolver the handler executes.
	Plan *plan.Gather
}

// BuildTxOffload constructs the gather execution context for sending count
// elements of the committed datatype, using the shared default caches.
func BuildTxOffload(p BuildParams) (*TxOffload, error) {
	return defaultCaches.buildTxOffload(p)
}

// GatherPlan returns the lowered gather resolver the sender offload would
// select for count elements of the committed datatype, plus its kind label
// — the plan-report hook, bypassing the caches.
func GatherPlan(typ *ddt.Type, count int) (*plan.Gather, string) {
	b := new(offloadCaches).buildSpecialized(DefaultCostModel(), typ, count, false)
	return b.g, b.kind()
}

// buildTxOffload is BuildTxOffload against one session's cache set. The
// gather state is immutable after construction, so one context is shared
// by every message of the committed layout — a batch of sends referencing
// it occupies its NIC memory once, like a batch of receives sharing a
// committed receive context.
func (c *offloadCaches) buildTxOffload(p BuildParams) (*TxOffload, error) {
	if p.Count <= 0 {
		return nil, fmt.Errorf("core: count %d", p.Count)
	}
	if p.Type.Size()*int64(p.Count) <= 0 {
		return nil, fmt.Errorf("core: empty datatype")
	}
	b := c.specialized(p.Cost, p.Type, p.Count, false)
	c.counters.noteGather(b.g.Kind())
	return &TxOffload{
		Ctx: &spin.ExecutionContext{
			Name:        "gather/" + b.kind(),
			Payload:     b.gather,
			NICMemBytes: b.nicBytes,
		},
		Prep:   b.prep(p),
		Kind:   b.kind(),
		Blocks: b.blocks,
		Plan:   b.g,
	}, nil
}
