package sim

// Server models a serially-occupied resource (a link, a DMA channel, a
// matching unit): requests arriving while the server is busy queue in FIFO
// order. It is time-algebra rather than event-driven — callers ask "if work
// of length d arrives at time t, when does it start and finish?" — which
// keeps bandwidth modelling exact without flooding the event queue.
type Server struct {
	busyUntil Time
	busyTotal Time
	jobs      uint64
}

// Acquire books the server for a job of duration d arriving at time t.
// It returns the time the job starts (>= t) and the time it completes.
func (s *Server) Acquire(t, d Time) (start, end Time) {
	if d < 0 {
		panic("sim: negative service time")
	}
	start = t
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end = start + d
	s.busyUntil = end
	s.busyTotal += d
	s.jobs++
	return start, end
}

// BusyTotal returns the cumulative busy time booked on the server.
func (s *Server) BusyTotal() Time { return s.busyTotal }

// Jobs returns the number of jobs served.
func (s *Server) Jobs() uint64 { return s.jobs }

// Utilization returns busy time divided by the horizon, in [0,1] when the
// horizon covers all bookings.
func (s *Server) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.busyTotal) / float64(horizon)
}

// MultiServer models k identical parallel servers with a shared FIFO queue
// (e.g. DMA channels). A job is placed on the server that frees up first.
//
// The pool is a binary min-heap of (busyUntil, index) entries — ties break
// toward the lowest index, matching the linear-scan semantics this
// replaced — so Acquire costs O(log k) instead of O(k) scans on the DMA
// hot path.
type MultiServer struct {
	heap      []serverSlot
	busyTotal Time
	jobs      uint64
}

// serverSlot is one server in the availability heap.
type serverSlot struct {
	busyUntil Time
	idx       int
}

func (a serverSlot) before(b serverSlot) bool {
	if a.busyUntil != b.busyUntil {
		return a.busyUntil < b.busyUntil
	}
	return a.idx < b.idx
}

// NewMultiServer returns a pool of k servers. k must be positive.
func NewMultiServer(k int) *MultiServer {
	if k <= 0 {
		panic("sim: MultiServer needs k >= 1")
	}
	m := &MultiServer{heap: make([]serverSlot, k)}
	for i := range m.heap {
		m.heap[i].idx = i
	}
	return m
}

// Acquire books a job of duration d arriving at time t on the earliest
// available server, returning start and end times.
func (m *MultiServer) Acquire(t, d Time) (start, end Time) {
	if d < 0 {
		panic("sim: negative service time")
	}
	start = t
	if m.heap[0].busyUntil > start {
		start = m.heap[0].busyUntil
	}
	end = start + d
	m.heap[0].busyUntil = end
	// Sift the re-booked root down to its place.
	h := m.heap
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	m.busyTotal += d
	m.jobs++
	return start, end
}

// Reset returns every server to idle and zeroes the counters, so a pooled
// device can reuse the heap storage across simulations.
func (m *MultiServer) Reset() {
	for i := range m.heap {
		m.heap[i] = serverSlot{idx: i}
	}
	m.busyTotal = 0
	m.jobs = 0
}

// Servers returns the pool size.
func (m *MultiServer) Servers() int { return len(m.heap) }

// BusyTotal returns the cumulative busy time across all servers.
func (m *MultiServer) BusyTotal() Time { return m.busyTotal }

// Jobs returns the number of jobs served.
func (m *MultiServer) Jobs() uint64 { return m.jobs }
