package nic

import (
	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// A receive batch is the topology of one endpoint with only Recvs, run by
// RunExchange like every other: all messages share the endpoint's inbound
// parser, physical HPU pool, DMA channels and PCIe link, and their
// execution contexts must fit NIC memory together. This is the traffic an
// endpoint sees during a real exchange (alltoall, halo): packets of
// overlapping messages interleave on the device instead of each message
// having the NIC to itself. Messages whose arrival windows do not overlap
// report exactly what a batch of that message alone would (shifted by
// Start); overlapping messages contend and slow each other down, which is
// the point.

// BatchMessage describes one message of an endpoint's receives: its match
// bits against the shared portal table, its packed stream and destination
// buffer, and the time its first bit leaves the sender. Order optionally
// permutes the message's packet delivery (nil = in-order).
type BatchMessage struct {
	PT     *portals.PT
	Bits   portals.MatchBits
	Packed []byte
	Host   []byte
	Start  sim.Time
	Order  []int
	// Arrivals, when non-nil, is an explicit packet arrival schedule (a
	// sender-side simulation pacing this receiver); Start and Order are
	// ignored. The schedule must deliver the header packet first and the
	// completion packet last.
	Arrivals []fabric.Arrival
}
