package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/transport"
)

// protoVersion is the request/response framing version.
const protoVersion = 1

// Request kinds (the header's kind byte).
const (
	ReqOpen   = 1 // claim the wire session; value = session id
	ReqCommit = 2 // commit the payload's datatype; value = handle id
	ReqPost   = 3 // post a receive against a handle; value = future id
	ReqSend   = 4 // post a send against a handle; value = future id
	ReqFlush  = 5 // execute pending posts+sends; payload = future records
	ReqClose  = 6 // close the session and free its handles
	ReqFree   = 7 // free one committed handle
	ReqStats  = 8 // value = daemon's open session count
)

// StrategyAuto in the request's strategy byte asks the server to pick
// the commit strategy (core.SelectStrategy).
const StrategyAuto = 0xFF

// reqHdrSize and respHdrSize are the fixed header lengths (see the
// package docs for the layouts).
const (
	reqHdrSize  = 20
	respHdrSize = 12
)

// futureRecSize is the per-future record length in a flush response.
const futureRecSize = 16

// Status is the response status byte. Every non-OK status maps to a
// typed error (Status.Err) so remote callers match the same sentinels
// the in-process API returns.
type Status uint8

// Response statuses.
const (
	StatusOK              Status = 0
	StatusBadRequest      Status = 1  // malformed or semantically invalid request
	StatusUnknownSession  Status = 2  // request on a session the server does not hold
	StatusSessionLimit    Status = 3  // open rejected: MaxSessions reached
	StatusHandleLimit     Status = 4  // commit rejected: MaxHandles reached
	StatusByteBudget      Status = 5  // post/send rejected: per-session byte budget
	StatusUnknownHandle   Status = 6  // handle id never committed here
	StatusFreedHandle     Status = 7  // handle id was committed, then freed
	StatusDuplicateCommit Status = 8  // identical (type, strategy) already committed
	StatusMsgTimeout      Status = 9  // future: retry budget exhausted (core.ErrTimeout)
	StatusMsgFailed       Status = 10 // future: execution or verification failed
	StatusBusy            Status = 11 // session queue full; back off and retry
)

// Typed rejections the daemon returns over the wire.
var (
	ErrBadRequest      = errors.New("server: bad request")
	ErrUnknownSession  = errors.New("server: unknown session")
	ErrSessionLimit    = errors.New("server: session limit reached")
	ErrHandleLimit     = errors.New("server: handle limit reached")
	ErrByteBudget      = errors.New("server: per-session byte budget exceeded")
	ErrUnknownHandle   = errors.New("server: unknown handle")
	ErrFreedHandle     = errors.New("server: handle is freed")
	ErrDuplicateCommit = errors.New("server: type already committed")
	ErrBusy            = errors.New("server: session busy")
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnknownSession:
		return "unknown-session"
	case StatusSessionLimit:
		return "session-limit"
	case StatusHandleLimit:
		return "handle-limit"
	case StatusByteBudget:
		return "byte-budget"
	case StatusUnknownHandle:
		return "unknown-handle"
	case StatusFreedHandle:
		return "freed-handle"
	case StatusDuplicateCommit:
		return "duplicate-commit"
	case StatusMsgTimeout:
		return "msg-timeout"
	case StatusMsgFailed:
		return "msg-failed"
	case StatusBusy:
		return "busy"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Err maps the status to its typed error, wrapping the server's detail
// string when it carries one. StatusOK maps to nil.
func (s Status) Err(detail string) error {
	var base error
	switch s {
	case StatusOK:
		return nil
	case StatusBadRequest:
		base = ErrBadRequest
	case StatusUnknownSession:
		base = ErrUnknownSession
	case StatusSessionLimit:
		base = ErrSessionLimit
	case StatusHandleLimit:
		base = ErrHandleLimit
	case StatusByteBudget:
		base = ErrByteBudget
	case StatusUnknownHandle:
		base = ErrUnknownHandle
	case StatusFreedHandle:
		base = ErrFreedHandle
	case StatusDuplicateCommit:
		base = ErrDuplicateCommit
	case StatusMsgTimeout:
		base = core.ErrTimeout
	case StatusBusy:
		base = ErrBusy
	case StatusMsgFailed:
		if detail != "" {
			return fmt.Errorf("server: message failed: %s", detail)
		}
		return errors.New("server: message failed")
	default:
		return fmt.Errorf("server: unknown status %d (%s)", uint8(s), detail)
	}
	if detail != "" {
		return fmt.Errorf("%w: %s", base, detail)
	}
	return base
}

// Request is one decoded client request.
type Request struct {
	Kind     uint8
	Strategy uint8 // commit: explicit strategy or StrategyAuto
	Handle   uint32
	Count    uint32
	Seed     int64

	// Type is the commit request's decoded datatype; RawType its exact
	// wire encoding (the server's commit-dedup key).
	Type    *ddt.Type
	RawType []byte
	// Packed is a post request's optional caller-packed wire stream. A
	// decoded request's Packed aliases the payload it was decoded from.
	Packed []byte

	// msg is the transport message whose pooled buffer a served post's
	// Packed aliases; the daemon releases it once nothing reads the
	// stream any more.
	msg *transport.Message
}

// EncodeRequest serializes the request into its transport message
// parts: the fixed header block and the bulk payload.
func EncodeRequest(r *Request) (hdr, payload []byte) {
	hdr = make([]byte, reqHdrSize)
	hdr[0] = protoVersion
	hdr[1] = r.Kind
	hdr[2] = r.Strategy
	binary.LittleEndian.PutUint32(hdr[4:], r.Handle)
	binary.LittleEndian.PutUint32(hdr[8:], r.Count)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(r.Seed))
	switch r.Kind {
	case ReqCommit:
		if r.RawType != nil {
			payload = r.RawType
		} else if r.Type != nil {
			payload = ddt.Encode(r.Type)
		}
	case ReqPost:
		payload = r.Packed
	}
	return hdr, payload
}

// DecodeRequest parses one request from its transport message parts.
// A commit's datatype is rebuilt from the encoding and the encoding is
// copied, so both outlive the message. A post's packed stream is not
// copied: the request's Packed aliases payload, and the caller keeps
// the message (and its pooled buffer) while the request is in use.
func DecodeRequest(hdr, payload []byte) (*Request, error) {
	if len(hdr) != reqHdrSize {
		return nil, fmt.Errorf("server: request header %d bytes, want %d", len(hdr), reqHdrSize)
	}
	if hdr[0] != protoVersion {
		return nil, fmt.Errorf("server: request version %d, want %d", hdr[0], protoVersion)
	}
	if hdr[3] != 0 {
		return nil, fmt.Errorf("server: reserved request byte %#x", hdr[3])
	}
	r := &Request{
		Kind:     hdr[1],
		Strategy: hdr[2],
		Handle:   binary.LittleEndian.Uint32(hdr[4:]),
		Count:    binary.LittleEndian.Uint32(hdr[8:]),
		Seed:     int64(binary.LittleEndian.Uint64(hdr[12:])),
	}
	switch r.Kind {
	case ReqOpen, ReqFlush, ReqClose, ReqFree, ReqSend, ReqStats:
		if len(payload) != 0 {
			return nil, fmt.Errorf("server: %s request carries %d payload bytes", kindName(r.Kind), len(payload))
		}
	case ReqCommit:
		t, err := ddt.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("server: commit datatype: %w", err)
		}
		r.Type = t
		r.RawType = append([]byte(nil), payload...)
	case ReqPost:
		if len(payload) > 0 {
			r.Packed = payload
		}
	default:
		return nil, fmt.Errorf("server: unknown request kind %d", r.Kind)
	}
	if r.Kind != ReqCommit && r.Strategy != 0 {
		return nil, fmt.Errorf("server: strategy byte %d on a %s request", r.Strategy, kindName(r.Kind))
	}
	return r, nil
}

// kindName names a request kind for diagnostics.
func kindName(k uint8) string {
	switch k {
	case ReqOpen:
		return "open"
	case ReqCommit:
		return "commit"
	case ReqPost:
		return "post"
	case ReqSend:
		return "send"
	case ReqFlush:
		return "flush"
	case ReqClose:
		return "close"
	case ReqFree:
		return "free"
	case ReqStats:
		return "stats"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// FutureStatus is one flushed message's outcome in a flush response.
type FutureStatus struct {
	ID       uint32
	Status   Status
	Verified bool
	Bytes    uint64
}

// Err returns the record's typed error (nil for StatusOK).
func (f FutureStatus) Err() error { return f.Status.Err("") }

// Response is one decoded server response.
type Response struct {
	Kind   uint8
	Status Status
	Value  uint32
	// Futures carries a flush response's per-message outcomes.
	Futures []FutureStatus
	// Detail is the non-OK human-readable diagnostic.
	Detail string
}

// EncodeResponse serializes the response into its transport message
// parts.
func EncodeResponse(r *Response) (hdr, payload []byte) {
	hdr = make([]byte, respHdrSize)
	hdr[0] = protoVersion
	hdr[1] = r.Kind
	hdr[2] = uint8(r.Status)
	binary.LittleEndian.PutUint32(hdr[4:], r.Value)
	if r.Status != StatusOK {
		return hdr, []byte(r.Detail)
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Futures)))
	if len(r.Futures) > 0 {
		payload = make([]byte, len(r.Futures)*futureRecSize)
		for i, f := range r.Futures {
			rec := payload[i*futureRecSize:]
			binary.LittleEndian.PutUint32(rec, f.ID)
			rec[4] = uint8(f.Status)
			if f.Verified {
				rec[5] = 1
			}
			binary.LittleEndian.PutUint64(rec[8:], f.Bytes)
		}
	}
	return hdr, payload
}

// DecodeResponse parses one response from its transport message parts.
// The returned response owns its memory.
func DecodeResponse(hdr, payload []byte) (*Response, error) {
	if len(hdr) != respHdrSize {
		return nil, fmt.Errorf("server: response header %d bytes, want %d", len(hdr), respHdrSize)
	}
	if hdr[0] != protoVersion {
		return nil, fmt.Errorf("server: response version %d, want %d", hdr[0], protoVersion)
	}
	if hdr[3] != 0 {
		return nil, fmt.Errorf("server: reserved response byte %#x", hdr[3])
	}
	r := &Response{
		Kind:   hdr[1],
		Status: Status(hdr[2]),
		Value:  binary.LittleEndian.Uint32(hdr[4:]),
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if r.Status != StatusOK {
		if n != 0 {
			return nil, fmt.Errorf("server: %v response declares %d future records", r.Status, n)
		}
		r.Detail = string(payload)
		return r, nil
	}
	if int64(n)*futureRecSize != int64(len(payload)) {
		return nil, fmt.Errorf("server: %d future records but %d payload bytes", n, len(payload))
	}
	if n > 0 {
		r.Futures = make([]FutureStatus, n)
		for i := range r.Futures {
			rec := payload[i*futureRecSize:]
			if rec[6] != 0 || rec[7] != 0 {
				return nil, fmt.Errorf("server: reserved future record bytes set")
			}
			r.Futures[i] = FutureStatus{
				ID:       binary.LittleEndian.Uint32(rec),
				Status:   Status(rec[4]),
				Verified: rec[5] == 1,
				Bytes:    binary.LittleEndian.Uint64(rec[8:]),
			}
			if rec[5] > 1 {
				return nil, fmt.Errorf("server: future record verified byte %d", rec[5])
			}
		}
	}
	return r, nil
}
