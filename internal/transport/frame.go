package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// FrameType distinguishes the two frame kinds on the wire.
type FrameType uint8

const (
	// FrameData carries one chunk of a message's byte stream.
	FrameData FrameType = 1
	// FrameAck carries a cumulative ack plus a selective-ack bitmap.
	FrameAck FrameType = 2
)

const (
	frameMagic   uint32 = 0x53504454 // "SPDT"
	frameVersion byte   = 2
	// ackReqBit is bit 7 of the type byte: the data frame asks the
	// receiver for an ack. Only data frames may carry it.
	ackReqBit byte = 0x80
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 28
	// MaxFrameSize bounds a whole datagram (header + payload); it fits
	// a 1500-byte MTU with room for IP/UDP headers.
	MaxFrameSize = 1472
	// MaxPayloadSize is the largest payload one frame can carry.
	MaxPayloadSize = MaxFrameSize - HeaderSize
)

// Frame is one parsed datagram.
type Frame struct {
	Type FrameType
	// AckReq marks a data frame that asks the receiver for an ack (bit 7
	// of the type byte). The decoder rejects it on any other frame type.
	AckReq  bool
	Session uint32
	Message uint32
	// Seq is the data frame's index within its message, or the ack's
	// cumulative acknowledgment (every frame below Seq was received).
	Seq uint32
	// Aux is the data frame's total-frame count, or the ack's
	// selective-ack bitmap (bit i set: frame Seq+1+i received).
	Aux uint32
	// Payload aliases the decoded datagram; copy it to retain it past
	// the datagram buffer's reuse.
	Payload []byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame decode errors. ErrCorruptFrame covers every malformed datagram —
// including checksum mismatches, which is how injected corruption
// degrades to loss.
var (
	ErrCorruptFrame = errors.New("transport: corrupt frame")
)

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. The checksum is computed over the whole frame with the checksum
// field zeroed.
func AppendFrame(dst []byte, f *Frame) []byte {
	if len(f.Payload) > MaxPayloadSize {
		panic(fmt.Sprintf("transport: frame payload %d exceeds %d", len(f.Payload), MaxPayloadSize))
	}
	typ := byte(f.Type)
	if f.AckReq {
		typ |= ackReqBit
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, frameVersion, typ)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Payload)))
	dst = binary.LittleEndian.AppendUint32(dst, f.Session)
	dst = binary.LittleEndian.AppendUint32(dst, f.Message)
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, f.Aux)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // checksum placeholder
	dst = append(dst, f.Payload...)
	sum := crc32.Checksum(dst[start:], crcTable)
	binary.LittleEndian.PutUint32(dst[start+24:], sum)
	return dst
}

// DecodeFrame parses one datagram. The returned frame's payload aliases
// pkt. Any malformed input — short, bad magic or version, unknown type,
// an ack-request bit on a non-data frame, inconsistent length, failed
// checksum — returns ErrCorruptFrame (wrapped with the reason); callers
// treat it as loss.
func DecodeFrame(pkt []byte) (Frame, error) {
	if len(pkt) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d bytes, header is %d", ErrCorruptFrame, len(pkt), HeaderSize)
	}
	if binary.LittleEndian.Uint32(pkt) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic", ErrCorruptFrame)
	}
	if pkt[4] != frameVersion {
		return Frame{}, fmt.Errorf("%w: version %d", ErrCorruptFrame, pkt[4])
	}
	ft := FrameType(pkt[5] &^ ackReqBit)
	ackReq := pkt[5]&ackReqBit != 0
	if ft != FrameData && ft != FrameAck {
		return Frame{}, fmt.Errorf("%w: frame type %d", ErrCorruptFrame, ft)
	}
	if ackReq && ft != FrameData {
		return Frame{}, fmt.Errorf("%w: ack request on frame type %d", ErrCorruptFrame, ft)
	}
	plen := int(binary.LittleEndian.Uint16(pkt[6:]))
	if HeaderSize+plen != len(pkt) {
		return Frame{}, fmt.Errorf("%w: length field %d, datagram holds %d payload bytes",
			ErrCorruptFrame, plen, len(pkt)-HeaderSize)
	}
	want := binary.LittleEndian.Uint32(pkt[24:])
	binary.LittleEndian.PutUint32(pkt[24:], 0)
	got := crc32.Checksum(pkt, crcTable)
	binary.LittleEndian.PutUint32(pkt[24:], want)
	if got != want {
		return Frame{}, fmt.Errorf("%w: checksum %08x, computed %08x", ErrCorruptFrame, want, got)
	}
	return Frame{
		Type:    ft,
		AckReq:  ackReq,
		Session: binary.LittleEndian.Uint32(pkt[8:]),
		Message: binary.LittleEndian.Uint32(pkt[12:]),
		Seq:     binary.LittleEndian.Uint32(pkt[16:]),
		Aux:     binary.LittleEndian.Uint32(pkt[20:]),
		Payload: pkt[HeaderSize:],
	}, nil
}

// PeekFrame parses only the header fields of a datagram, without
// verifying the checksum — the hook FaultConfig.Filter uses to target
// faults at specific frame types or messages. Type is the frame kind
// with the ack-request bit split out into AckReq.
func PeekFrame(pkt []byte) (f Frame, ok bool) {
	if len(pkt) < HeaderSize || binary.LittleEndian.Uint32(pkt) != frameMagic {
		return Frame{}, false
	}
	return Frame{
		Type:    FrameType(pkt[5] &^ ackReqBit),
		AckReq:  pkt[5]&ackReqBit != 0,
		Session: binary.LittleEndian.Uint32(pkt[8:]),
		Message: binary.LittleEndian.Uint32(pkt[12:]),
		Seq:     binary.LittleEndian.Uint32(pkt[16:]),
		Aux:     binary.LittleEndian.Uint32(pkt[20:]),
	}, true
}

// burstPool recycles send-burst buffers, each large enough for a full
// window of maximum-size frames: a windowed transfer sends thousands of
// frames and must not allocate a buffer per burst.
var burstPool = sync.Pool{
	New: func() any { b := make([]byte, 0, maxWindow*MaxFrameSize); return &b },
}
