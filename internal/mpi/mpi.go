// Package mpi implements the paper's Sec. 3.2.6: the integration of
// NIC-offloaded datatype processing into an MPI-like communication library.
// It covers the full lifecycle the paper describes:
//
//  1. Commit — the library intercepts MPI_Type_commit, selects the
//     processing strategy for the datatype and honours user attributes
//     (MPI_Type_set_attr): offload preference, victim-selection priority,
//     and the heuristic's ε. Commit goes through the session API: the
//     library holds a core.Session, and each committed Type is backed by
//     a persistent core.TypeHandle, so the expensive offload state
//     (lowered plans, dataloops, checkpoint sets, specialized
//     handlers) is built exactly once per handle and shared by every
//     posted receive — no library-private build caches.
//  2. Post — posting a receive instantiates the handle's offload state,
//     allocates NIC memory (evicting colder datatypes LRU-first within
//     priority), and appends a matching entry to the Portals priority
//     list. When NIC memory cannot be found, the receive transparently
//     falls back to host-based unpacking.
//  3. Complete — message delivery runs the full NIC simulation and the
//     library consumes the completion event.
//
// Unexpected messages (no posted receive) land packed through the overflow
// list and are unpacked by the host CPU when the receive arrives — offload
// is impossible because the receive datatype is unknown at match time.
package mpi

import (
	"bytes"
	"errors"
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// Preference is the user's offload attribute for a datatype.
type Preference int

// Offload preferences settable via type attributes.
const (
	// OffloadAuto lets the library decide (the default).
	OffloadAuto Preference = iota
	// OffloadNever forces host-based processing.
	OffloadNever
	// OffloadAlways fails the receive instead of falling back.
	OffloadAlways
)

// Attr carries the paper's MPI_Type_set_attr knobs.
type Attr struct {
	// Offload is the offload preference.
	Offload Preference
	// Priority drives NIC-memory victim selection: receives may evict
	// state of datatypes with lower or equal priority.
	Priority int
	// Epsilon overrides the checkpoint heuristic tolerance; 0 uses the
	// library default.
	Epsilon float64
}

// Type is a committed datatype: a session-backed TypeHandle plus the
// library-level attributes.
type Type struct {
	ddt    *ddt.Type
	attr   Attr
	handle *core.TypeHandle
}

// DDT returns the underlying derived datatype.
func (t *Type) DDT() *ddt.Type { return t.ddt }

// Strategy returns the processing strategy selected at commit.
func (t *Type) Strategy() core.Strategy { return t.handle.Strategy() }

// Handle returns the session handle backing the committed type.
func (t *Type) Handle() *core.TypeHandle { return t.handle }

// Stats counts library-level outcomes.
type Stats struct {
	// Offloaded receives completed through NIC handlers.
	Offloaded int
	// HostFallbacks counts receives processed on the host because NIC
	// memory was unavailable or the type preferred it.
	HostFallbacks int
	// Unexpected counts messages that arrived before their receive.
	Unexpected int
	// Evictions counts NIC-memory victims.
	Evictions int64
}

// Lib is one process's communication library instance. It owns a
// core.Session: committed types are session handles, and the session's
// caches replace the library-private offload build state earlier versions
// duplicated.
type Lib struct {
	nicCfg nic.Config
	host   hostcpu.Config
	sess   *core.Session

	alloc      *nic.Allocator
	ni         *portals.NI
	pt         *portals.PT
	nextMatch  portals.MatchBits
	posted     map[portals.MatchBits]*Recv
	unexpected map[portals.MatchBits][]byte
	stats      Stats
}

// NewLib returns a library over the given NIC configuration.
func NewLib(cfg nic.Config) (*Lib, error) {
	ni := portals.NewNI(1)
	pt, err := ni.PT(0)
	if err != nil {
		return nil, err
	}
	scfg := core.NewSessionConfig()
	scfg.NIC = cfg
	scfg.NIC.Trace = nil // sessions reject shared traces; Deliver keeps cfg's
	return &Lib{
		nicCfg:     cfg,
		host:       scfg.Host,
		sess:       core.NewSession(scfg),
		alloc:      nic.NewAllocator(cfg.NICMemBytes),
		ni:         ni,
		pt:         pt,
		posted:     make(map[portals.MatchBits]*Recv),
		unexpected: make(map[portals.MatchBits][]byte),
	}, nil
}

// Stats returns the outcome counters.
func (l *Lib) Stats() Stats {
	s := l.stats
	s.Evictions = l.alloc.Evictions()
	return s
}

// NICMemUsed returns the NIC memory currently held by offloaded datatypes.
func (l *Lib) NICMemUsed() int64 { return l.alloc.Used() }

// CommitType implements the commit step: strategy selection plus attribute
// handling. Vector-like datatypes (after normalization) take the
// specialized handler; everything else takes RW-CP, the paper's best
// general strategy. The returned Type is backed by a persistent session
// TypeHandle: its offload state is built once on first post and shared by
// every receive of the type.
func (l *Lib) CommitType(t *ddt.Type, attr Attr) (*Type, error) {
	if t.Size() <= 0 {
		return nil, errors.New("mpi: empty datatype")
	}
	strategy := core.SelectStrategy(t)
	if attr.Offload == OffloadNever {
		strategy = core.HostUnpack
	}
	h, err := l.sess.CommitWith(t, strategy, core.CommitOpts{Epsilon: attr.Epsilon})
	if err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	return &Type{ddt: t, attr: attr, handle: h}, nil
}

// Recv is a posted receive.
type Recv struct {
	typ    *Type
	count  int
	match  portals.MatchBits
	buf    []byte
	memKey string
	// Offloaded reports whether the receive runs on the NIC; otherwise it
	// falls back to host unpacking.
	Offloaded bool
	off       *core.Offload
	completed bool
	// Result holds the delivery outcome after completion.
	Result RecvResult
}

// RecvResult reports a completed receive.
type RecvResult struct {
	// ProcTime is the message processing time (plus host unpack for
	// fallback paths).
	ProcTime sim.Time
	// Offloaded and Unexpected record which path ran.
	Offloaded  bool
	Unexpected bool
}

// PostRecv posts a receive for count elements of the committed type into
// buf. The match bits identify the message. If the message already arrived
// (unexpected path) it is unpacked immediately by the host CPU.
func (l *Lib) PostRecv(typ *Type, count int, match portals.MatchBits, buf []byte) (*Recv, error) {
	if typ == nil || count <= 0 {
		return nil, errors.New("mpi: invalid receive")
	}
	if _, dup := l.posted[match]; dup {
		return nil, fmt.Errorf("mpi: match bits %#x already posted", match)
	}
	lo, hi := typ.ddt.Footprint(count)
	if lo < 0 {
		return nil, fmt.Errorf("mpi: receive datatype has negative lower bound %d", lo)
	}
	if int64(len(buf)) < hi {
		return nil, fmt.Errorf("mpi: receive buffer %d bytes, datatype needs %d", len(buf), hi)
	}
	r := &Recv{typ: typ, count: count, match: match, buf: buf}

	// Unexpected message already queued: host-unpack it now (Sec. 3.2.6:
	// offload is impossible, the datatype was unknown at match time).
	if packed, ok := l.unexpected[match]; ok {
		delete(l.unexpected, match)
		if err := ddt.Unpack(typ.ddt, count, packed, buf); err != nil {
			return nil, err
		}
		cost := hostcpu.UnpackCost(l.host, typ.ddt, count)
		r.completed = true
		r.Result = RecvResult{ProcTime: cost.Time, Unexpected: true}
		l.stats.HostFallbacks++
		return r, nil
	}

	if typ.Strategy() != core.HostUnpack {
		if err := l.tryOffload(r); err != nil && typ.attr.Offload == OffloadAlways {
			return nil, fmt.Errorf("mpi: offload required but unavailable: %w", err)
		}
	}
	if !r.Offloaded {
		// Fallback: a plain entry lands the packed stream for CPU unpack.
		me := &portals.ME{Match: match, UseOnce: true,
			Region: portals.HostRegion{Length: typ.ddt.Size() * int64(count)}}
		if err := l.pt.Append(portals.PriorityList, me); err != nil {
			return nil, err
		}
	}
	l.posted[match] = r
	return r, nil
}

// tryOffload instantiates the handle's offload state (built once per
// (handle, count) by the session), allocates NIC memory (with LRU
// eviction) and appends the processing entry.
func (l *Lib) tryOffload(r *Recv) error {
	off, err := r.typ.handle.Instantiate(r.count)
	if err != nil {
		return err
	}
	// The state depends on the datatype, the count and the heuristic
	// parameters: distinct attribute settings get distinct NIC entries,
	// keyed by the EFFECTIVE epsilon so an explicit attribute equal to
	// the session default shares the default's entry.
	eps := r.typ.attr.Epsilon
	if eps == 0 {
		eps = core.NewSessionConfig().Epsilon
	}
	key := fmt.Sprintf("%s/x%d/e%g/%v", r.typ.ddt.Signature(), r.count, eps, r.typ.Strategy())
	if _, err := l.alloc.Allocate(key, off.Ctx.NICMemBytes, r.typ.attr.Priority); err != nil {
		return err
	}
	if err := l.alloc.Pin(key); err != nil {
		return err
	}
	me := &portals.ME{Match: r.match, UseOnce: true, Ctx: off.Ctx}
	if err := l.pt.Append(portals.PriorityList, me); err != nil {
		_ = l.alloc.Unpin(key)
		return err
	}
	r.memKey = key
	r.off = off
	r.Offloaded = true
	return nil
}

// Deliver simulates the arrival of a message carrying packed for the given
// match bits. With a posted receive it completes it (offloaded or
// fallback); without one it takes the unexpected path: the overflow entry
// captures the packed stream for a later PostRecv.
func (l *Lib) Deliver(match portals.MatchBits, packed []byte, order []int) (*Recv, error) {
	r, ok := l.posted[match]
	if !ok {
		// Unexpected: stage through the overflow list.
		staging := make([]byte, len(packed))
		me := &portals.ME{Match: match, UseOnce: true,
			Region: portals.HostRegion{Length: int64(len(packed))}}
		if err := l.pt.Append(portals.OverflowList, me); err != nil {
			return nil, err
		}
		if _, err := nic.Receive(l.nicCfg, l.pt, match, packed, staging, order); err != nil {
			return nil, err
		}
		l.unexpected[match] = staging
		l.stats.Unexpected++
		return nil, nil
	}
	delete(l.posted, match)

	if r.Offloaded {
		res, err := nic.Receive(l.nicCfg, l.pt, match, packed, r.buf, order)
		if err != nil {
			return nil, err
		}
		if err := l.alloc.Unpin(r.memKey); err != nil {
			return nil, err
		}
		r.completed = true
		r.Result = RecvResult{ProcTime: res.ProcTime, Offloaded: true}
		l.stats.Offloaded++
		return r, nil
	}

	staging := make([]byte, len(packed))
	res, err := nic.Receive(l.nicCfg, l.pt, match, packed, staging, order)
	if err != nil {
		return nil, err
	}
	if err := ddt.Unpack(r.typ.ddt, r.count, staging, r.buf); err != nil {
		return nil, err
	}
	cost := hostcpu.UnpackCost(l.host, r.typ.ddt, r.count)
	r.completed = true
	r.Result = RecvResult{ProcTime: res.ProcTime + cost.Time}
	l.stats.HostFallbacks++
	return r, nil
}

// Completed reports whether the receive finished.
func (r *Recv) Completed() bool { return r.completed }

// Verify compares the receive buffer against the reference unpack of the
// given packed stream.
func (r *Recv) Verify(packed []byte) error {
	_, hi := r.typ.ddt.Footprint(r.count)
	want := make([]byte, hi)
	if err := ddt.Unpack(r.typ.ddt, r.count, packed, want); err != nil {
		return err
	}
	if !bytes.Equal(r.buf[:hi], want) {
		return errors.New("mpi: receive buffer differs from reference unpack")
	}
	return nil
}

// FreeType releases the NIC state cached for a datatype signature across
// all counts (MPI_Type_free). Pinned state of in-flight receives blocks
// the free.
func (l *Lib) FreeType(typ *Type) error {
	prefix := typ.ddt.Signature() + "/x"
	for _, key := range l.alloc.Keys() {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			if err := l.alloc.Free(key); err != nil {
				return err
			}
		}
	}
	return nil
}
