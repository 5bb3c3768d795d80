package transport

import "net"

// wire is how an Endpoint moves frames through its conn. A burst is a run
// of encoded frames, each seg bytes long except possibly the last; a
// batch is what one read returns. Every datagram a wire writes or reads
// holds exactly one frame, so the frame format and its checks do not
// depend on the wire.
type wire interface {
	// writeBurst sends the frames in buf to addr and returns the number
	// of conn calls it made.
	writeBurst(buf []byte, seg int, addr net.Addr) (calls int, err error)
	// readBatch reads the next batch into buf: n bytes from one source,
	// split into seg-byte frames with the last possibly shorter
	// (0 < seg <= n unless n is 0). Only the endpoint's read loop calls
	// it.
	readBatch(buf []byte) (n, seg int, from net.Addr, err error)
}

// datagramWire moves one frame per conn call. It serves every conn the
// batched path does not: the Pipe, a FaultConn (so each injected fault
// hits exactly one frame) and every socket off Linux.
type datagramWire struct{ conn net.PacketConn }

func (w datagramWire) writeBurst(buf []byte, seg int, addr net.Addr) (int, error) {
	calls := 0
	for off := 0; off < len(buf); off += seg {
		calls++
		if _, err := w.conn.WriteTo(buf[off:min(off+seg, len(buf))], addr); err != nil {
			return calls, err
		}
	}
	return calls, nil
}

func (w datagramWire) readBatch(buf []byte) (int, int, net.Addr, error) {
	n, from, err := w.conn.ReadFrom(buf)
	return n, n, from, err
}
