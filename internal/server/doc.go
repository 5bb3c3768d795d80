// Package server is the spinsimd session daemon: a long-running process
// that multiplexes many concurrent core.Sessions over one reliable
// transport socket — the paper's sPIN engine as a service, where many
// hosts post non-contiguous transfer requests against shared NIC
// resources. Each peer claims a wire session id, the daemon
// demultiplexes inbound requests by it (the transport already keys
// reassembly by (session, message)) and answers with
// transport.Endpoint.SendTo; every peer gets its own core.Session with
// bounded server-side accounting — max sessions, max committed handles,
// a per-session pending-byte budget — and idle sessions are reaped.
//
// # Commit interning
//
// A committed datatype's identity is its exact wire encoding. Every
// commit is still decoded and validated, but the daemon then interns it
// by its encoding (core.SharedCaches.Intern): an encoding any session
// committed before yields the committed type that commit built, so its
// dataloop, checkpoint set, specialized handler and offload template are
// cache hits for every later session, not rebuilds. The intern table and
// the build caches are bounded and evict cold entries, so a long-lived
// daemon keeps hitting on its current working set at bounded memory;
// Stats().Caches counts their hits, misses and evictions.
//
// # Zero-copy posts
//
// A post's packed stream is scattered and verified straight from the
// pooled transport buffer it was reassembled into; the daemon copies it
// nowhere. DecodeRequest slices the stream out of the payload, and the
// request takes the transport message over. Each message has one owner
// at a time: the dispatcher from Recv until it enqueues the request, the
// session's worker from dequeue on. The buffer goes back to the
// transport's pool exactly once:
//
//   - at once, for every request without a stream, a request that fails
//     to decode, and ReqStats;
//   - on every routing rejection (session 0, duplicate open, session
//     limit, closed server, unknown session, StatusBusy);
//   - on every post rejection by the worker (unknown or freed handle,
//     bad count, byte budget, a core.Endpoint.Post error);
//   - after the ReqFlush that ran the post, once the flush has returned
//     and the future statuses are read;
//   - when the worker exits (close, reap, shutdown), for posts never
//     flushed and for requests still queued; route enqueues under the
//     server lock, so the exiting worker sees every request routed to it
//     and answers each with StatusUnknownSession.
//
// Stats().HeldPosts counts the posts whose stream the daemon holds in a
// transport buffer; it reads 0 once every session has flushed or gone.
//
// # Request wire protocol
//
// A request is one transport message: the fixed 20-byte request header
// travels as the message's Hdr block, the bulk bytes (an encoded
// datatype, a packed stream) as its Payload. All integers are little
// endian.
//
//	offset  size  field
//	0       1     version (1)
//	1       1     kind (1=open 2=commit 3=post 4=send 5=flush 6=close 7=free
//	              8=stats)
//	2       1     strategy (commit only: 0..3 explicit, 255 = auto-select)
//	3       1     reserved (must be zero)
//	4       4     handle id (post/send/free)
//	8       4     element count (post/send)
//	12      8     payload seed (post/send; 0 = default)
//
// Payload by kind: commit carries the ddt-encoded datatype (ddt.Encode);
// post may carry the caller's packed wire stream (exactly
// Type.Size()*count bytes — the server then scatters and verifies those
// bytes instead of synthesizing a payload); every other kind carries
// none.
//
// # Response wire protocol
//
// The response echoes the request's message id on the same wire
// session. Its Hdr is the fixed 12-byte response header, its Payload
// depends on the status.
//
//	offset  size  field
//	0       1     version (1)
//	1       1     kind (echo of the request)
//	2       1     status (see Status)
//	3       1     reserved (zero)
//	4       4     value (open: session id; commit: handle id;
//	              post/send: future id; stats: open session count)
//	8       4     flush: number of per-future records in the payload
//
// A StatusOK flush response carries one 16-byte record per future
// resolved, in post order:
//
//	offset  size  field
//	0       4     future id
//	4       1     future status (StatusOK / StatusMsgTimeout / StatusMsgFailed)
//	5       1     verified (1 = byte-for-byte reference check passed)
//	6       2     reserved (zero)
//	8       8     message bytes moved
//
// This reuses core.BatchError semantics on the wire: the flush as a
// whole succeeds, each message carries its own status, and the client
// package folds the failed records back into a *core.BatchError.
//
// Any non-OK status carries a human-readable detail string as the
// payload; the client package maps each status to its typed error
// (ErrUnknownSession, ErrSessionLimit, ErrHandleLimit, ErrByteBudget,
// ErrUnknownHandle, ErrFreedHandle, ErrDuplicateCommit, ErrBadRequest —
// and StatusMsgTimeout wraps core.ErrTimeout), so a caller three
// processes away can still errors.Is against the same sentinels the
// in-process session API returns.
package server
