package core

import (
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/plan"
	"spinddt/internal/spin"
)

// This file builds the specialized handlers of Sec. 3.2.3: one resolver,
// two handlers. The resolver is a lowered plan.Gather that maps a packet's
// stream offset to its contiguous host regions — O(1) arithmetic for
// contiguous and vector layouts (the paper's spin_vec_t of Listing 1), an
// ⟨offset, size⟩ list with a binary search otherwise ("Other datatypes").
// The receive handler scatters an arrived packet through it into host
// memory; the send handler gathers an outgoing packet through it over the
// PCIe read path (the state a PtlProcessPut references, Sec. 3.1.2). One
// cost function prices both. Unlike the simplified listing, packets may
// split blocks.

// specState is the NIC-resident state of a specialized handler: the shared
// resolver plus the handler cost constants.
type specState struct {
	cost CostModel
	g    *plan.Gather
}

// result prices one handler run that touched blocks regions: T_init, plus
// the list resolver's binary search, plus the per-region work.
func (s *specState) result(blocks int64) spin.Result {
	search := times(int64(s.g.SearchSteps()), s.cost.SpecBinSearchStep)
	proc := times(blocks, s.cost.SpecPerBlock)
	return spin.Result{
		Runtime:   s.cost.SpecInit + search + proc,
		Breakdown: spin.Breakdown{Init: s.cost.SpecInit, Setup: search, Processing: proc},
	}
}

// scatter is the receive-side payload handler.
func (s *specState) scatter(a *spin.HandlerArgs) spin.Result {
	return s.result(s.g.Scatter(a.StreamOff, a.Payload, a.DMA))
}

// gather is the send-side payload handler; a nil payload runs timing-only.
func (s *specState) gather(a *spin.HandlerArgs) spin.Result {
	return s.result(s.g.Resolve(a.StreamOff, a.PktBytes, a.Payload, a.DMARead))
}

// specBuild is one specialized build of a committed layout, shared by both
// directions: the resolver, the two handlers over it and its bookkeeping.
type specBuild struct {
	g               *plan.Gather
	scatter, gather spin.Handler
	// nicBytes is the handler state in NIC memory; blocks the layout's
	// contiguous regions.
	nicBytes, blocks int64
}

// kind labels the resolver ("contiguous", "vector", "list").
func (b *specBuild) kind() string { return b.g.Kind().String() }

// prep is the host preparation of the build: the CPU walks the layout to
// emit a list resolver's regions, then the state crosses PCIe.
func (b *specBuild) prep(p BuildParams) HostPrep {
	walk := int64(0)
	if b.g.Kind() == plan.GatherList {
		walk = b.blocks
	}
	return HostPrep{
		CPUTime:   hostcpu.WalkCost(p.Host, walk),
		CopyBytes: b.nicBytes,
		CopyTime:  p.NIC.PCIe.ByteTime(b.nicBytes) + p.NIC.PCIe.ReadLatency,
	}
}

// buildSpecialized selects the resolver of count elements of a non-empty
// committed type: the arithmetic one when the (normalized) datatype is
// contiguous or a uniform-block strided layout, the offset list otherwise.
// Arithmetic resolvers hold the four spin_vec_t parameters (32 B); the
// list holds one ⟨offset, size⟩ pair per region, following the paper's
// accounting (stream positions are prefix sums of the sizes).
func buildSpecialized(cost CostModel, typ *ddt.Type, count int, skipNormalize bool) *specBuild {
	norm := typ
	if !skipNormalize {
		norm = ddt.Normalize(typ)
	}
	b := &specBuild{nicBytes: 32, blocks: typ.TotalBlocks(count)}
	switch {
	case norm.Contiguous():
		b.g = plan.NewContigGather(typ.Size() * int64(count))
	case (norm.Kind() == ddt.KindVector || norm.Kind() == ddt.KindHVector) &&
		norm.Children()[0].Contiguous() && norm.BlockLen() > 0 && norm.StrideBytes() > 0:
		b.g = plan.NewVectorGather(
			int64(norm.BlockLen())*norm.Children()[0].Size(),
			norm.StrideBytes(),
			int64(norm.Count()),
			norm.Extent(),
		)
	default:
		b.g = plan.NewListGather(typ.Flatten(count))
		b.nicBytes = 16 * b.blocks
	}
	st := &specState{cost: cost, g: b.g}
	b.scatter, b.gather = st.scatter, st.gather
	return b
}

// specialized returns the cached specialized build of a layout. Receive
// builds honor DisableNormalization (skipNormalize); send builds always
// normalize, so they share the receive builds made with it off.
func (c *offloadCaches) specialized(cost CostModel, typ *ddt.Type, count int, skipNormalize bool) *specBuild {
	k := specCacheKey{typ: typ, count: count, cost: cost, disableNorm: skipNormalize}
	if v, ok := c.artifacts.get(k); ok {
		return v.(*specBuild)
	}
	b := buildSpecialized(cost, typ, count, skipNormalize)
	return c.artifacts.put(k, b, 1, artifactBudget).(*specBuild)
}
