//go:build !linux

package transport

import "net"

// newWire moves frames one datagram per conn call: UDP GSO and GRO are
// Linux socket options.
func newWire(conn net.PacketConn) wire { return datagramWire{conn} }
