package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spinddt/internal/ddt"
)

// WireMeta is the exchange-format header of one message: how the receiver
// scatters the packed payload. It is the committed datatype's wire form —
// the ddt-encoded constructor tree the receiver decodes, commits (lowering
// its plan) and replays with Unpack — or, for the
// non-processing path, a plain destination offset.
type WireMeta struct {
	// Type is the scatter datatype; nil selects the contiguous
	// non-processing path (the payload lands at Offset).
	Type *ddt.Type
	// Count is the element count (Type != nil).
	Count int
	// Offset is the destination byte offset of the contiguous path.
	Offset int64
}

const (
	metaKindBlockProgram byte = 1
	metaKindContiguous   byte = 2
)

// ErrCorruptMeta reports an exchange-format header that failed to decode.
var ErrCorruptMeta = errors.New("transport: corrupt exchange meta")

// EncodeWireMeta serializes the exchange-format header.
func EncodeWireMeta(m WireMeta) []byte {
	if m.Type == nil {
		buf := make([]byte, 0, 9)
		buf = append(buf, metaKindContiguous)
		return binary.LittleEndian.AppendUint64(buf, uint64(m.Offset))
	}
	enc := ddt.Encode(m.Type)
	buf := make([]byte, 0, 9+len(enc))
	buf = append(buf, metaKindBlockProgram)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Count))
	return append(buf, enc...)
}

// DecodeWireMeta parses an exchange-format header. The embedded datatype
// is rebuilt through the ddt constructors, so a malformed or adversarial
// header yields an error, never an inconsistent scatter program.
func DecodeWireMeta(buf []byte) (WireMeta, error) {
	if len(buf) < 1 {
		return WireMeta{}, fmt.Errorf("%w: empty", ErrCorruptMeta)
	}
	switch buf[0] {
	case metaKindContiguous:
		if len(buf) != 9 {
			return WireMeta{}, fmt.Errorf("%w: contiguous header is 9 bytes, got %d", ErrCorruptMeta, len(buf))
		}
		off := int64(binary.LittleEndian.Uint64(buf[1:]))
		if off < 0 {
			return WireMeta{}, fmt.Errorf("%w: negative offset %d", ErrCorruptMeta, off)
		}
		return WireMeta{Offset: off}, nil
	case metaKindBlockProgram:
		if len(buf) < 9 {
			return WireMeta{}, fmt.Errorf("%w: truncated block-program header", ErrCorruptMeta)
		}
		count := int64(binary.LittleEndian.Uint64(buf[1:]))
		if count <= 0 || count > 1<<40 {
			return WireMeta{}, fmt.Errorf("%w: count %d", ErrCorruptMeta, count)
		}
		typ, err := ddt.Decode(buf[9:])
		if err != nil {
			return WireMeta{}, fmt.Errorf("%w: %v", ErrCorruptMeta, err)
		}
		return WireMeta{Type: typ, Count: int(count)}, nil
	default:
		return WireMeta{}, fmt.Errorf("%w: kind %d", ErrCorruptMeta, buf[0])
	}
}
