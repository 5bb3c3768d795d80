package nic

import "spinddt/internal/sim"

// SendResult reports one sender-side simulation (the three tiles of the
// paper's Fig. 4), produced by the outbound device model.
type SendResult struct {
	MsgBytes int64
	// Injected is when the last bit of the message left the sender NIC.
	Injected sim.Time
	// CPUBusy is the sender CPU time consumed by datatype processing
	// (packing or region identification); the paper's motivation for
	// outbound sPIN is driving this to zero.
	CPUBusy sim.Time
	// HPUBusy is the sender-NIC handler time (outbound sPIN only).
	HPUBusy sim.Time
	// HandlerRuns counts gather-handler executions (outbound sPIN only).
	HandlerRuns int
	// Regions is the number of contiguous source regions processed.
	Regions int64
	// PacketInjections holds the time each packet finished leaving the
	// NIC, in stream order, for coupling with a receiver simulation.
	PacketInjections []sim.Time
}

// ThroughputGbps returns message bits over injection time.
func (s SendResult) ThroughputGbps() float64 {
	if s.Injected <= 0 {
		return 0
	}
	return float64(s.MsgBytes) * 8 / s.Injected.Seconds() / 1e9
}
