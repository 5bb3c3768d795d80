// Package transport is the reliable UDP wire underneath the spinsimd
// session daemon (internal/server) and its client
// (internal/server/client): it moves their requests and responses
// between OS processes over an unreliable packet network and survives
// loss, reordering, duplication and corruption. Everything above it deals
// in whole messages; everything below it is any net.PacketConn — a kernel
// UDP socket, the in-memory Pipe, or either wrapped in a FaultConn.
//
// # Frame layout
//
// Every datagram carries exactly one frame:
//
//	offset  size  field
//	0       4     magic 0x53504454 ("SPDT", little endian)
//	4       1     version (2)
//	5       1     type: bits 0-6 kind (1 = data, 2 = ack); bit 7 ack
//	              request (data frames only; an ack with it is corrupt)
//	6       2     payload length
//	8       4     session id
//	12      4     message id
//	16      4     sequence number
//	20      4     aux (data: total frame count; ack: SACK bitmap)
//	24      4     checksum (CRC-32C over the frame with this field zeroed)
//	28      ...   payload (data frames only)
//
// A message is the unit callers send: Endpoint.Send(id, hdr, payload)
// serializes the virtual stream [u32 hdrLen][hdr][payload] into data
// frames of at most Config.MaxPayload bytes, sequence-numbered from 0;
// the aux field of every data frame repeats the total frame count so any
// single frame opens the message on the receiver. The header block is the
// server's request or response header (internal/server's proto.go), the
// payload is the packed byte stream a post carries. MaxPayload defaults
// to MaxPayloadSize, so every frame but the last fills a 1472-byte
// datagram. Both sides of a connection must agree on MaxPayload: the
// receiver places frame seq at offset seq*MaxPayload, so it drops any
// non-final data frame that does not carry exactly MaxPayload bytes, and
// a mismatched multi-frame send times out instead of delivering a
// mis-assembled message.
//
// A frame whose checksum does not match its contents is dropped on
// receipt — corruption degrades to loss, and the ARQ below recovers it.
//
// A data frame's total-frame count is a claim the receiver cannot check
// until the message completes, so it never sizes what the receiver
// holds. No correct sender transmits a frame Window or more past its
// lowest unacked frame, and that frame is never above the receiver's
// cumulative ack, so the receiver drops any data frame 33 (the largest
// Window) or more frames past its cumulative ack. Its reassembly buffer
// starts at min(frames, 66) chunks and doubles as the cumulative ack
// advances. A forged frame claiming 2^31 frames therefore costs one
// buffer of 66 chunks, not ~3 TB. A completed stream too short for its
// own header length is dropped, never delivered.
//
// # Sessions and fan-out
//
// The session id is the demultiplexing key of a shared server socket:
// inbound reassembly is keyed by (session, message), so one endpoint
// receives from any number of peers as long as their session ids differ,
// and Message.From reports each message's observed source address.
// Outbound state is keyed the same way — Endpoint.SendTo(dest, session,
// id, ...) transmits frames tagged with an explicit session to an
// explicit address, which is how a server answers many peers over one
// socket (acks echo the data frame's session id, so they find the right
// sender state on the way back). Endpoint.Send is the single-peer
// special case: SendTo(peer, own session, ...). The request framing one
// layer up (internal/server) rides exactly this: each client claims a
// session id, the daemon demultiplexes requests by it and addresses
// responses with SendTo.
//
// # Ack scheme
//
// Acks are sent on request, not per frame: every ack costs the receiver a
// datagram write and the sender a read, so a per-frame ack doubles the
// syscalls of a message. The sender sets the ack-request bit
// (Frame.AckReq) on
//
//   - every max(1, Window/4)-th frame of a message (frames 7, 15, 23, ...
//     at the default window of 32);
//   - the frame that fills the window (seq == base+Window-1);
//   - the final frame of the message;
//   - every retransmission.
//
// The newest frame in flight therefore always asks, and the sender never
// waits for an ack it did not ask for, at any Window. The stride derives
// from the sender's own Window, so the receiver needs no setting.
//
// The receiver acks a data frame when
//
//   - the frame asked for an ack;
//   - it arrived out of order, or holes remain below the highest frame
//     received: the sender needs the selective-ack state to repair them;
//   - it is a duplicate: the sender is retransmitting, so its ack went
//     missing;
//   - it completes the message.
//
// The receiver decides per frame whether an ack is owed and sends the
// acks per read batch (see Batching): at most one per message, carrying
// the receive state after the whole batch, before the batch's completed
// messages are delivered. A batch of one datagram acks exactly as its
// frame alone calls for. A clean 64 KiB message is 46 data frames either
// way; over the Pipe it draws 6 acks (frames 7, 15, 23, 31, 39 and the
// final 45), over a batched UDP socket 2 (one per window burst).
//
// Every ack carries the full receive state: seq is the cumulative ack
// (every frame below it has been received) and aux is a selective-ack
// bitmap — bit i set means frame seq+1+i has been received out of order.
// The sender marks both and retransmits only the holes. Acks are
// unreliable; a lost ack costs at most one RTO and a retransmission, which
// asks for an ack again. Completed messages are remembered and re-acked
// with a full cumulative ack, so a sender whose final ack was lost still
// converges.
//
// Because the bitmap covers 32 frames past the cumulative ack, the send
// window (Config.Window) is capped at 33 frames in flight per message;
// the default is 32.
//
// # RTO and backoff policy
//
// The sender takes one round-trip sample per ack, from the newest frame
// the ack newly covers that was transmitted exactly once (Karn's rule):
// the older frames it covers waited for that frame's ack request, so
// their send times overstate the round trip. It maintains the usual
// Jacobson estimate:
// SRTT + 4*RTTVAR, clamped to [Config.RTOMin, Config.RTOMax]. Each Send
// runs its own retransmission loop: when no ack progress arrives within
// the current RTO, every unacked in-window frame is retransmitted and the
// RTO doubles (up to RTOMax); any progress resets both the timer and the
// retry budget. After Config.MaxRetries consecutive no-progress timeouts
// the send fails with ErrTimeout — the bounded retry budget that surfaces
// as a typed error from the server client's calls.
//
// # Batching
//
// On Linux, an endpoint over a kernel UDP socket (*net.UDPConn) moves a
// window as one unit. Each window fill or retransmission pass encodes its
// frames in ascending seq order into one buffer and hands it to the
// kernel as a single UDP GSO send (UDP_SEGMENT, HeaderSize+MaxPayload
// bytes per segment). Every frame but a message's last is full, and the
// last sorts last, so the burst meets GSO's rule that only the final
// segment may be short. The kernel cuts the burst into the same
// datagrams a per-frame sender would write, so a peer that does not
// batch reads them one by one. The receiving socket enables UDP_GRO, so
// one read returns a run of same-size datagrams from one source; the
// read loop splits it back into frames, and every frame still passes
// DecodeFrame and the reassembly checks. Over loopback a 32-frame window
// then costs one write and one read instead of 32 of each.
//
// A GSO send the kernel rejects with EIO, EINVAL or ENOPROTOOPT (no
// checksum offload on the route, a segment above the path MTU) is resent
// one datagram per call, and that socket sends per datagram from then
// on; so does a socket whose kernel has no UDP_SEGMENT option at all. Every other conn moves one datagram
// per call: the Pipe, a FaultConn (so each injected fault hits exactly
// one frame and the loss matrix stays comparable) and any socket off
// Linux. Stats.WriteCalls and Stats.ReadCalls count the conn calls, so a
// silent fall back shows in the counters even when every message still
// arrives.
//
// # Fault injection
//
// FaultConn decorates any net.PacketConn with deterministic, seeded
// fault injection on the write path: each datagram is independently
// dropped, duplicated, held back one write (reordering) or bit-flipped
// (corruption) according to FaultConfig rates drawn from a seeded PRNG,
// and an optional Filter restricts the faults to matching datagrams
// (PeekFrame exposes the parsed header for exactly this). Every loss
// scenario is therefore reproducible in-process and race-testable — no
// real lossy network required. FaultConn.Stats reports what was injected.
package transport
