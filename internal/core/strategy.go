package core

import (
	"fmt"

	"spinddt/internal/dataloop"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
	"spinddt/internal/spin"
)

// Strategy selects a datatype-processing implementation.
type Strategy int

// The strategies evaluated in the paper.
const (
	// Specialized uses datatype-specific handlers (Sec. 3.2.3).
	Specialized Strategy = iota
	// RWCP uses progressing checkpoints with blocked-RR scheduling.
	RWCP
	// ROCP uses read-only checkpoint snapshots cloned per packet.
	ROCP
	// HPULocal replicates the MPITypes segment per vHPU.
	HPULocal
	// HostUnpack is the baseline: RDMA to a staging buffer, CPU unpack.
	HostUnpack
	// PortalsIovec is the Portals 4 scatter-list baseline (v=32 entries).
	PortalsIovec
)

func (s Strategy) String() string {
	switch s {
	case Specialized:
		return "Specialized"
	case RWCP:
		return "RW-CP"
	case ROCP:
		return "RO-CP"
	case HPULocal:
		return "HPU-local"
	case HostUnpack:
		return "Host"
	case PortalsIovec:
		return "Portals4-iovec"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// OffloadStrategies lists the sPIN-based strategies (Fig. 8's offloaded
// series).
var OffloadStrategies = []Strategy{Specialized, RWCP, ROCP, HPULocal}

// AllStrategies lists every strategy including the baselines.
var AllStrategies = []Strategy{Specialized, RWCP, ROCP, HPULocal, HostUnpack, PortalsIovec}

// HostPrep is the host-side cost of preparing an offload: building the NIC
// state (offset lists, dataloops, checkpoints) and copying it over PCIe.
// Fig. 18 amortizes this cost over datatype reuses; Fig. 15 shows it as
// the "host overhead" before message processing.
type HostPrep struct {
	// CPUTime is the host CPU time to build the state.
	CPUTime sim.Time
	// CopyBytes is the state volume moved to the NIC (the bar annotations
	// of Fig. 16).
	CopyBytes int64
	// CopyTime is the PCIe transfer time of the state.
	CopyTime sim.Time
}

// Total returns the full preparation latency.
func (hp HostPrep) Total() sim.Time { return hp.CPUTime + hp.CopyTime }

// Offload is one execution-ready instance of a built strategy: an
// execution context plus the build's bookkeeping. Instances are minted
// from an immutable per-(strategy, BuildParams) template (instantiate.go):
// Instantiate clones one more from the same template, Release returns this
// one to the template's pool.
type Offload struct {
	Strategy Strategy
	Ctx      *spin.ExecutionContext
	Prep     HostPrep
	// Interval and Checkpoints are set for the checkpointed strategies.
	Interval    int64
	Checkpoints int
	Choice      IntervalChoice
	// SpecKind labels the specialized variant ("vector", "list",
	// "contiguous").
	SpecKind string

	// tmpl is the template this instance was minted from; state the
	// instance's rewindable handler state (nil for Specialized); pt/me the
	// lazily wired single-entry portal table (see Offload.PT).
	tmpl   *offloadTemplate
	state  offloadState
	pt     *portals.PT
	me     *portals.ME
	pooled bool
}

// BuildParams carries everything needed to construct an offload.
type BuildParams struct {
	Type  *ddt.Type
	Count int
	NIC   nic.Config
	Cost  CostModel
	Host  hostcpu.Config
	// Epsilon is the RW-CP scheduling-overhead tolerance (paper: 0.2).
	Epsilon float64
	// PktBufBytes is the packet buffer for the heuristic's third
	// constraint; 0 disables the check.
	PktBufBytes int64
	// ForceIntervalBytes overrides the checkpoint-interval heuristic for
	// the checkpointed strategies (ablation knob); 0 selects automatically.
	ForceIntervalBytes int64
	// DisableNormalization makes the specialized builder skip datatype
	// normalization (ablation knob).
	DisableNormalization bool
}

// The offload build caches implement the template/instance contract
// (instantiate.go) behind BuildOffload:
//
//   - IMMUTABLE, cached per key: compiled dataloops, checkpoint sets with
//     their interval choice, specialized builds (one resolver serving the
//     receive and the send handler), the offloadTemplate assembling them
//     per full (strategy, BuildParams) key, and the host baselines' work:
//     each layout's flattened region list (the iovec scatter list, which
//     the specialized list resolver and the streaming-puts schedule
//     share) and its host unpack price. Templates and their artifacts are
//     read-only after construction — dataloops are never written,
//     checkpoint masters stay pristine for reverts, resolver state and
//     region lists are fixed at build — so concurrent sweep workers and
//     cluster ranks share them safely.
//   - MUTABLE, pooled per template: the *Offload instances BuildOffload
//     returns. Each owns its execution context, its general-strategy
//     working state (progressing checkpoints, per-vHPU segments, the
//     RO-CP scratch) and an optional single-entry portal table, and is
//     handed out exclusively until Release.
//   - REWOUND by Release: the working state is invalidated by a
//     generation bump (the next message starts from the checkpoint
//     masters / position-zero segments, exactly as a cold build would)
//     and the portal table's event queue is cleared in place. Release is
//     O(1); nothing is freed, so a steady exchange re-posts with zero
//     per-(rank, slot) build or clone work.
//
// The paper's Fig. 18 reuse story is the same argument from the host's
// side: a sweep re-posts one committed type for every strategy, size and
// repetition, and recompiling the dataloop or recloning the checkpoint
// set each time dominated the host-side cost. The reported Prep costs
// still model a cold build: caching changes wall-clock, never results.
//
// The caches are bounded and evict (cache.go): entries hit since the
// hand's last pass stay, cold ones make room. Eviction only drops the
// cache's reference — a handle keeps its own instance, and an instance
// checked out from an evicted template still releases into that
// template — so a later build of an evicted key is just a miss.
// Artifacts are keyed by the committed type's pointer: in-process callers
// reuse one *ddt.Type per layout, and the served path interns commits by
// their encoding (SharedCaches.Intern), so a re-commit of an encoding the
// daemon has seen reaches the caches as the same pointer and hits.
const (
	// artifactBudget bounds the artifacts cache in entries. The Fig. 16
	// application deck under its four strategies holds 315 (seven per
	// layout), so a deck stays resident.
	artifactBudget = 512
	// typeBudget bounds the intern table in types.
	typeBudget = 512
)

type loopCacheKey struct {
	typ   *ddt.Type
	count int
}

// listCacheKey identifies the flattened region list of a layout.
type listCacheKey struct {
	typ   *ddt.Type
	count int
}

// priceCacheKey identifies the host unpack price of a layout under one
// host profile.
type priceCacheKey struct {
	host  hostcpu.Config
	typ   *ddt.Type
	count int
}

type ckptCacheKey struct {
	typ           *ddt.Type
	count         int
	nic           nic.Config // Trace normalized to nil
	cost          CostModel
	epsilon       float64
	pktBufBytes   int64
	forceInterval int64
}

type ckptCacheEntry struct {
	choice IntervalChoice
	ckpts  *dataloop.CheckpointSet
}

type specCacheKey struct {
	typ         *ddt.Type
	count       int
	cost        CostModel
	disableNorm bool
}

// tmplCacheKey identifies one offload template: the strategy plus every
// build input (the NIC trace is normalized away — tracing never affects a
// build).
type tmplCacheKey struct {
	strategy Strategy
	params   BuildParams
}

// offloadCaches is one set of the build caches above. Every Session owns
// its own set by default (NewSession) so sessions are isolated; sessions
// created with SessionConfig.Caches share one (the server's per-peer
// sessions instantiate from server-wide templates that way), and the
// package-level one-shot wrappers (Run, RunTransfer, RunCluster via
// BuildOffload) share defaultCaches. The zero value is an empty set.
type offloadCaches struct {
	// artifacts holds dataloops, checkpoint sets, specialized builds,
	// templates, region lists and host prices under their distinct key
	// types, one entry each.
	artifacts clockCache[any, any]
	// types is the intern table: committed datatypes by wire encoding.
	types clockCache[string, *ddt.Type]
	// counters tallies plan selections for Session.Stats.
	counters PlanCounters
}

// defaultCaches backs the package-level BuildOffload and the private
// one-shot session behind Run/RunSend/RunTransfer.
var defaultCaches offloadCaches

// intern returns the committed type held for the encoding enc, or commits
// t (enc's decode), holds it and returns it.
func (c *offloadCaches) intern(enc []byte, t *ddt.Type) *ddt.Type {
	k := string(enc)
	if have, ok := c.types.get(k); ok {
		return have
	}
	t.Commit()
	return c.types.put(k, t, 1, typeBudget)
}

// compileLoop returns the (shared, immutable) dataloop of a committed type.
func (c *offloadCaches) compileLoop(typ *ddt.Type, count int) (*dataloop.Dataloop, error) {
	k := loopCacheKey{typ: typ, count: count}
	if v, ok := c.artifacts.get(k); ok {
		return v.(*dataloop.Dataloop), nil
	}
	loop, err := dataloop.CompileCount(typ, count)
	if err != nil {
		return nil, err
	}
	return c.artifacts.put(k, loop, 1, artifactBudget).(*dataloop.Dataloop), nil
}

// regions returns the (shared, read-only) region list of count elements
// of a committed type, flattened once.
func (c *offloadCaches) regions(typ *ddt.Type, count int) []ddt.Block {
	k := listCacheKey{typ: typ, count: count}
	if v, ok := c.artifacts.get(k); ok {
		return v.([]ddt.Block)
	}
	return c.artifacts.put(k, typ.Flatten(count), 1, artifactBudget).([]ddt.Block)
}

// unpackCost returns the host baseline's price of unpacking count
// elements of a committed type, walked once per host profile.
func (c *offloadCaches) unpackCost(host hostcpu.Config, typ *ddt.Type, count int) hostcpu.Cost {
	k := priceCacheKey{host: host, typ: typ, count: count}
	if v, ok := c.artifacts.get(k); ok {
		return v.(hostcpu.Cost)
	}
	return c.artifacts.put(k, hostcpu.UnpackCost(host, typ, count), 1, artifactBudget).(hostcpu.Cost)
}

// BuildOffload returns an execution-ready offload instance for the
// strategy, minted from the shared default caches' template. This is the
// work an MPI implementation performs at type-commit and receive-post time
// (Sec. 3.2.6); repeated calls with the same parameters reuse the cached
// template and, once instances are Released, the template's pool.
func BuildOffload(s Strategy, p BuildParams) (*Offload, error) {
	return defaultCaches.buildOffload(s, p)
}

// buildOffload is BuildOffload against one session's cache set: template
// lookup plus one instantiation.
func (c *offloadCaches) buildOffload(s Strategy, p BuildParams) (*Offload, error) {
	t, err := c.template(s, p)
	if err != nil {
		return nil, err
	}
	return t.instantiate(), nil
}

// template returns the immutable template of one (strategy, BuildParams)
// key, building and caching it on a miss. Concurrent first builds may
// race; put keeps exactly one winner so every caller pools on the same
// template.
func (c *offloadCaches) template(s Strategy, p BuildParams) (*offloadTemplate, error) {
	if p.Count <= 0 {
		return nil, fmt.Errorf("core: count %d", p.Count)
	}
	if p.Type.Size()*int64(p.Count) <= 0 {
		return nil, fmt.Errorf("core: empty datatype")
	}
	k := tmplCacheKey{strategy: s, params: p}
	k.params.NIC.Trace = nil // tracing does not affect the build
	if v, ok := c.artifacts.get(k); ok {
		return v.(*offloadTemplate), nil
	}
	t, err := c.buildTemplate(s, p)
	if err != nil {
		return nil, err
	}
	return c.artifacts.put(k, t, 1, artifactBudget).(*offloadTemplate), nil
}

// buildTemplate assembles one template from the artifact caches: the cold
// path of BuildOffload.
func (c *offloadCaches) buildTemplate(s Strategy, p BuildParams) (*offloadTemplate, error) {
	msgSize := p.Type.Size() * int64(p.Count)
	t := &offloadTemplate{strategy: s, cost: p.Cost}
	t.completion = func(*spin.HandlerArgs) spin.Result {
		return spin.Result{Runtime: p.Cost.CompletionTime}
	}

	switch s {
	case Specialized:
		b := c.specialized(p.Cost, p.Type, p.Count, p.DisableNormalization)
		t.specHandler = b.scatter
		t.nicMemBytes = b.nicBytes
		t.specKind = b.kind()
		t.prep = b.prep(p)
		return t, nil

	case HPULocal:
		loop, err := c.compileLoop(p.Type, p.Count)
		if err != nil {
			return nil, err
		}
		t.loop = loop
		t.vhpus = p.NIC.HPUs
		t.policy = spin.Policy{DeltaP: 1, VHPUs: p.NIC.HPUs}
		// NIC memory: the dataloop description plus one segment per vHPU.
		segSize := dataloop.NewSegment(loop).EncodedSize()
		t.nicMemBytes = loop.EncodedSize() + int64(p.NIC.HPUs)*segSize
		t.prep = HostPrep{
			CopyBytes: loop.EncodedSize(),
			CopyTime:  p.NIC.PCIe.ByteTime(loop.EncodedSize()) + p.NIC.PCIe.ReadLatency,
		}
		return t, nil

	case ROCP, RWCP:
		loop, err := c.compileLoop(p.Type, p.Count)
		if err != nil {
			return nil, err
		}
		ck := ckptCacheKey{
			typ: p.Type, count: p.Count, nic: p.NIC, cost: p.Cost,
			epsilon: p.Epsilon, pktBufBytes: p.PktBufBytes,
			forceInterval: p.ForceIntervalBytes,
		}
		ck.nic.Trace = nil // tracing does not affect the build
		var choice IntervalChoice
		var ckpts *dataloop.CheckpointSet
		if v, ok := c.artifacts.get(ck); ok {
			e := v.(ckptCacheEntry)
			choice, ckpts = e.choice, e.ckpts
		} else {
			ckptSize := dataloop.NewSegment(loop).EncodedSize()
			gamma := p.Type.Gamma(p.Count, p.NIC.Fabric.MTU)
			budget := p.NIC.NICMemBytes - loop.EncodedSize()
			if budget < ckptSize {
				budget = ckptSize
			}
			choice = SelectInterval(IntervalParams{
				MsgBytes:        msgSize,
				PktBytes:        p.NIC.Fabric.MTU,
				HPUs:            p.NIC.HPUs,
				TPH:             p.Cost.GeneralHandlerTime(gamma),
				TPkt:            p.NIC.Fabric.PacketTime(p.NIC.Fabric.MTU),
				Epsilon:         p.Epsilon,
				CheckpointBytes: ckptSize,
				NICMemBudget:    budget,
				PktBufBytes:     p.PktBufBytes,
			})
			if p.ForceIntervalBytes > 0 {
				choice.IntervalBytes = p.ForceIntervalBytes
				choice.DeltaP = int((p.ForceIntervalBytes + p.NIC.Fabric.MTU - 1) / p.NIC.Fabric.MTU)
				choice.Checkpoints = int((msgSize + p.ForceIntervalBytes - 1) / p.ForceIntervalBytes)
			}
			ckpts, err = dataloop.BuildCheckpoints(loop, choice.IntervalBytes)
			if err != nil {
				return nil, err
			}
			c.artifacts.put(ck, ckptCacheEntry{choice: choice, ckpts: ckpts}, 1, artifactBudget)
		}
		t.ckpts = ckpts
		t.interval = choice.IntervalBytes
		t.checkpoints = ckpts.Count()
		t.choice = choice
		t.nicMemBytes = ckpts.NICBytes() + loop.EncodedSize()
		t.prep = HostPrep{
			CPUTime: hostcpu.WalkCost(p.Host, ckpts.Build.BlocksWalked) +
				hostcpu.CopyCost(p.Host, ckpts.Build.BytesCloned),
			CopyBytes: t.nicMemBytes,
			CopyTime:  p.NIC.PCIe.ByteTime(t.nicMemBytes) + p.NIC.PCIe.ReadLatency,
		}
		if s == RWCP {
			t.policy = spin.Policy{DeltaP: choice.DeltaP}
		}
		// Default policy otherwise: RO-CP handlers are independent.
		return t, nil

	default:
		return nil, fmt.Errorf("core: %v is not an offloaded strategy", s)
	}
}
