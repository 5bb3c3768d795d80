package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Pipe returns an in-memory net.PacketConn pair: datagrams written to one
// end arrive at the other, preserving message boundaries. It is the
// deterministic substrate for transport tests and benchmarks — the same
// code paths as a kernel UDP socket, none of the kernel's own timing
// noise — and composes with FaultConn for loss injection. Each end's
// receive queue is bounded; a full queue drops the datagram, which is
// exactly the overrun behavior of a real UDP socket buffer.
func Pipe() (a, b net.PacketConn) {
	ca := newPipeConn("pipe:a")
	cb := newPipeConn("pipe:b")
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

// pipeQueueCap bounds each end's receive queue (datagrams).
const pipeQueueCap = 4096

// pipeAddr is the net.Addr of one pipe end.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// pipeConn is one end of a Pipe.
type pipeConn struct {
	addr net.Addr // a pipeAddr, boxed once rather than per read
	peer *pipeConn

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*[]byte // datagram copies from pipeBufs
	closed   bool
	deadline time.Time
}

func newPipeConn(addr string) *pipeConn {
	c := &pipeConn{addr: pipeAddr(addr)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// pipeBufs recycles the per-datagram copies a pipe queues, so the pipe's
// own allocations do not hide the endpoint's.
var pipeBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, MaxFrameSize); return &b },
}

// deliver enqueues a copy of one datagram on this end's receive queue.
func (c *pipeConn) deliver(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.queue) >= pipeQueueCap {
		return // socket-buffer overrun: the datagram is lost
	}
	bp := pipeBufs.Get().(*[]byte)
	*bp = append((*bp)[:0], p...)
	c.queue = append(c.queue, bp)
	c.cond.Signal()
}

func (c *pipeConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 {
		if c.closed {
			return 0, nil, net.ErrClosed
		}
		if !c.deadline.IsZero() {
			wait := time.Until(c.deadline)
			if wait <= 0 {
				return 0, nil, errPipeTimeout
			}
			// A coarse deadline poll keeps the implementation free of
			// per-read timer goroutines; transport reads use no deadline.
			c.mu.Unlock()
			time.Sleep(min(wait, time.Millisecond))
			c.mu.Lock()
			continue
		}
		c.cond.Wait()
	}
	bp := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	n := copy(p, *bp)
	size := len(*bp)
	pipeBufs.Put(bp)
	if n < size {
		return n, c.peer.addr, fmt.Errorf("transport: datagram %d bytes truncated to %d", size, n)
	}
	return n, c.peer.addr, nil
}

func (c *pipeConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	closed := c.closed
	peer := c.peer
	c.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	peer.deliver(p)
	return len(p), nil
}

func (c *pipeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.cond.Broadcast()
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr { return c.addr }

func (c *pipeConn) SetDeadline(t time.Time) error      { return c.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return nil }
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	c.cond.Broadcast()
	return nil
}

// errPipeTimeout satisfies net.Error so callers can detect deadline
// expiry the same way they would on a real socket.
var errPipeTimeout net.Error = &pipeTimeout{}

type pipeTimeout struct{}

func (*pipeTimeout) Error() string   { return "transport: pipe read deadline exceeded" }
func (*pipeTimeout) Timeout() bool   { return true }
func (*pipeTimeout) Temporary() bool { return true }
