package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Linux UDP socket options (include/uapi/linux/udp.h), the same on every
// architecture; package syscall does not name them.
const (
	udpSegment = 103 // UDP_SEGMENT: the segment size of a GSO send
	udpGRO     = 104 // UDP_GRO: hand coalesced datagrams to one read
)

// newWire batches a kernel UDP socket and moves frames one datagram per
// call on every other conn.
func newWire(conn net.PacketConn) wire {
	if uc, ok := conn.(*net.UDPConn); ok {
		return newUDPWire(uc)
	}
	return datagramWire{conn}
}

// udpWire batches a Linux UDP socket. A burst of several frames leaves
// as one UDP GSO send: the kernel cuts it into seg-byte datagrams, so
// the peer sees the same datagrams a per-frame sender would produce.
// With UDP_GRO on, the kernel hands a run of same-size datagrams from
// one source to one read, with the segment size in a control message.
type udpWire struct {
	conn *net.UDPConn
	// noGSO is set for good when the kernel lacks UDP_SEGMENT or rejects
	// a GSO send (no checksum offload on the route, a segment above the
	// path MTU); every later burst goes per datagram.
	noGSO atomic.Bool

	// Read-loop state: the control-message buffer and the last source,
	// boxed once so steady traffic from one peer allocates no address.
	oob      []byte
	lastFrom netip.AddrPort
	lastAddr net.Addr
}

func newUDPWire(conn *net.UDPConn) *udpWire {
	w := &udpWire{conn: conn, oob: make([]byte, syscall.CmsgSpace(4))}
	// Both calls fail only on a conn that can no longer send or receive.
	if rc, err := conn.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) {
			// A kernel without UDP_GRO keeps returning one datagram per
			// read, which the read loop handles the same way.
			_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
			// A kernel without UDP_SEGMENT would ignore the control
			// message and send a burst as one oversized datagram.
			if _, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment); err != nil {
				w.noGSO.Store(true)
			}
		})
	}
	return w
}

// gsoCmsg is a UDP_SEGMENT control message as the kernel reads it: the
// header, then the segment size at CmsgLen(0). Its size is CmsgSpace(2)
// on every Linux architecture.
type gsoCmsg struct {
	hdr syscall.Cmsghdr
	seg uint16
}

func (w *udpWire) writeBurst(buf []byte, seg int, addr net.Addr) (int, error) {
	var ap netip.AddrPort
	if ua, ok := addr.(*net.UDPAddr); ok {
		ap = ua.AddrPort()
	}
	// An address with no IP means this host, which only WriteTo resolves.
	if !ap.Addr().IsValid() || len(buf) > seg && w.noGSO.Load() {
		return datagramWire{w.conn}.writeBurst(buf, seg, addr)
	}
	// An AF_INET socket rejects a 4-in-6 address; an AF_INET6 socket maps
	// the unmapped form back.
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if len(buf) <= seg {
		_, err := w.conn.WriteToUDPAddrPort(buf, ap)
		return 1, err
	}
	c := gsoCmsg{hdr: syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}, seg: uint16(seg)}
	c.hdr.SetLen(syscall.CmsgLen(2))
	_, _, err := w.conn.WriteMsgUDPAddrPort(buf, unsafe.Slice((*byte)(unsafe.Pointer(&c)), unsafe.Sizeof(c)), ap)
	if errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOPROTOOPT) {
		w.noGSO.Store(true)
		calls, err := datagramWire{w.conn}.writeBurst(buf, seg, addr)
		return 1 + calls, err
	}
	return 1, err
}

func (w *udpWire) readBatch(buf []byte) (int, int, net.Addr, error) {
	n, oobn, _, from, err := w.conn.ReadMsgUDPAddrPort(buf, w.oob)
	if err != nil {
		return 0, 0, nil, err
	}
	if from != w.lastFrom {
		w.lastFrom, w.lastAddr = from, net.UDPAddrFromAddrPort(from)
	}
	seg := n
	if s := groSegment(w.oob[:oobn]); s > 0 && s < n {
		seg = s
	}
	return n, seg, w.lastAddr, nil
}

// groSegment returns the segment size a UDP_GRO control message reports,
// or 0 when the read was not coalesced. UDP_GRO is the only control
// message the socket enables, so it is the first one when present.
func groSegment(oob []byte) int {
	if len(oob) < syscall.CmsgLen(4) {
		return 0
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	if h.Level != syscall.IPPROTO_UDP || h.Type != udpGRO {
		return 0
	}
	return int(binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):]))
}
