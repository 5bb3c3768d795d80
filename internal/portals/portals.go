// Package portals implements the Portals 4 network programming interface
// subset the paper builds on: matching and non-matching list entries on
// priority and overflow lists, match-bits semantics and event queues. The
// paper's two sender-side extensions, streaming puts
// (PtlSPutStart/PtlSPutStream, Sec. 3.1.1) and process puts
// (PtlProcessPut, Sec. 3.1.2) for outbound sPIN, are modelled by the
// NIC's send paths (nic.TxStreaming, nic.TxProcessPut).
//
// This package is the semantic layer: who matches what, which list entry
// receives a message, what events fire. Timing lives in internal/nic.
package portals

import (
	"errors"
	"fmt"

	"spinddt/internal/spin"
)

// MatchBits is the Portals 4 64-bit matching tag.
type MatchBits uint64

// List selects the priority or overflow list of a portal table entry.
type List int

// The two Portals 4 match lists.
const (
	PriorityList List = iota
	OverflowList
)

func (l List) String() string {
	if l == PriorityList {
		return "priority"
	}
	return "overflow"
}

// HostRegion describes destination memory exposed by a list entry:
// Offset/Length within the process's receive address space.
type HostRegion struct {
	Offset int64
	Length int64
}

// ME is a matching list entry. An ME with a nil Ctx delivers through the
// non-processing path (plain RDMA into Region); an ME with an execution
// context hands every packet to sPIN handlers.
type ME struct {
	Match  MatchBits
	Ignore MatchBits
	Region HostRegion
	// Ctx is the sPIN execution context processing this message, nil for
	// the non-processing path.
	Ctx *spin.ExecutionContext
	// UseOnce unlinks the entry after its first match (PTL_ME_USE_ONCE).
	// The matching unit still holds it until the completion packet.
	UseOnce bool

	pt     *PT
	list   List
	linked bool
}

// Linked reports whether the entry is currently on a match list.
func (me *ME) Linked() bool { return me.linked }

// EventKind enumerates the full events this model posts.
type EventKind int

// Event kinds.
const (
	// EventPut signals a completed put into a priority-list entry.
	EventPut EventKind = iota
	// EventPutOverflow signals a put landing in the overflow list.
	EventPutOverflow
	// EventDropped signals a message that matched no entry.
	EventDropped
	// EventHandlerCompletion signals the completion handler's final DMA
	// write (the zero-byte write with events enabled of Sec. 3.2.2).
	EventHandlerCompletion
)

func (k EventKind) String() string {
	switch k {
	case EventPut:
		return "PUT"
	case EventPutOverflow:
		return "PUT_OVERFLOW"
	case EventDropped:
		return "DROPPED"
	case EventHandlerCompletion:
		return "HANDLER_COMPLETION"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a full event on a portal table entry's event queue.
type Event struct {
	Kind  EventKind
	Match MatchBits
	Size  int64
}

// PT is a portal table entry: two match lists plus an event queue and a
// lightweight counting event.
type PT struct {
	index    int
	priority []*ME
	overflow []*ME
	events   []Event
	counter  int64
}

// Index returns the portal table index.
func (pt *PT) Index() int { return pt.index }

// Append links an entry at the tail of the chosen list.
func (pt *PT) Append(list List, me *ME) error {
	if me == nil {
		return errors.New("portals: nil ME")
	}
	if me.linked {
		return errors.New("portals: ME already linked")
	}
	me.pt = pt
	me.list = list
	me.linked = true
	if list == PriorityList {
		pt.priority = append(pt.priority, me)
	} else {
		pt.overflow = append(pt.overflow, me)
	}
	return nil
}

// Unlink removes the entry from its list. Unlinking an unlinked entry is a
// no-op, matching PtlMEUnlink semantics for already-consumed entries.
func (pt *PT) Unlink(me *ME) {
	if !me.linked || me.pt != pt {
		return
	}
	lst := &pt.priority
	if me.list == OverflowList {
		lst = &pt.overflow
	}
	for i, e := range *lst {
		if e == me {
			*lst = append((*lst)[:i], (*lst)[i+1:]...)
			break
		}
	}
	me.linked = false
}

// matches implements the Portals 4 match rule: all bits outside the ignore
// mask must be equal.
func (me *ME) matches(bits MatchBits) bool {
	return (me.Match^bits)&^me.Ignore == 0
}

// Match searches the priority list and then the overflow list for the
// first entry matching bits (the header-packet matching step of the NIC
// model). A UseOnce entry is unlinked; the caller keeps the returned
// pointer to deliver the rest of the message. The boolean reports whether
// an entry was found; the List reports which list it came from.
func (pt *PT) Match(bits MatchBits) (*ME, List, bool) {
	for _, me := range pt.priority {
		if me.matches(bits) {
			if me.UseOnce {
				pt.Unlink(me)
			}
			return me, PriorityList, true
		}
	}
	for _, me := range pt.overflow {
		if me.matches(bits) {
			if me.UseOnce {
				pt.Unlink(me)
			}
			return me, OverflowList, true
		}
	}
	return nil, 0, false
}

// PostEvent appends a full event to the PT's event queue and bumps the
// counting event.
func (pt *PT) PostEvent(ev Event) {
	pt.events = append(pt.events, ev)
	pt.counter++
}

// Events returns the queued full events.
func (pt *PT) Events() []Event { return pt.events }

// Counter returns the counting-event value.
func (pt *PT) Counter() int64 { return pt.counter }

// DrainEvents returns and clears the queued events.
func (pt *PT) DrainEvents() []Event {
	evs := pt.events
	pt.events = nil
	return evs
}

// ResetEvents discards the queued events and the counting event, keeping
// the queue's storage. It is the rewind step of a pooled portal table:
// unlike DrainEvents, the next PostEvent reuses the existing backing array.
func (pt *PT) ResetEvents() {
	pt.events = pt.events[:0]
	pt.counter = 0
}

// NI is a Portals 4 network interface with a fixed portal table.
type NI struct {
	pts []*PT
}

// NewNI returns an interface with n portal table entries.
func NewNI(n int) *NI {
	ni := &NI{pts: make([]*PT, n)}
	for i := range ni.pts {
		ni.pts[i] = &PT{index: i}
	}
	return ni
}

// PT returns portal table entry i.
func (ni *NI) PT(i int) (*PT, error) {
	if i < 0 || i >= len(ni.pts) {
		return nil, fmt.Errorf("portals: PT index %d out of range [0,%d)", i, len(ni.pts))
	}
	return ni.pts[i], nil
}

// NumPTs returns the portal table size.
func (ni *NI) NumPTs() int { return len(ni.pts) }
