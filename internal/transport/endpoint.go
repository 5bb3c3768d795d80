package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors the reliability layer surfaces.
var (
	// ErrTimeout reports a send whose retry budget ran out: MaxRetries
	// consecutive retransmission timeouts without ack progress. The
	// session layer re-exports it so Flush/FlushSends callers can match
	// it with errors.Is.
	ErrTimeout = errors.New("transport: retry budget exhausted")
	// ErrClosed reports an operation on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
)

// Config tunes an Endpoint. The zero value selects the defaults.
type Config struct {
	// MaxPayload is the data bytes carried per frame (default and cap
	// MaxPayloadSize, a full MTU-sized datagram). Both peers must agree
	// on it: the receiver places frame seq at offset seq*MaxPayload, so
	// it drops every non-final data frame that does not carry exactly
	// MaxPayload bytes. A multi-frame send from a peer with a different
	// MaxPayload therefore fails with ErrTimeout and delivers nothing.
	MaxPayload int
	// Window is the per-message frames in flight (default 32, capped at
	// maxWindow). It also sets the sender's ack-request stride,
	// max(1, Window/4) frames.
	Window int
	// RTOMin/RTOMax clamp the retransmission timeout (defaults 2ms and
	// 500ms).
	RTOMin, RTOMax time.Duration
	// MaxRetries is the per-send budget of consecutive no-progress
	// timeouts before the send fails with ErrTimeout (default 10).
	MaxRetries int
}

func (c Config) withDefaults() Config {
	if c.MaxPayload <= 0 || c.MaxPayload > MaxPayloadSize {
		c.MaxPayload = MaxPayloadSize
	}
	if c.Window <= 0 || c.Window > maxWindow {
		c.Window = 32
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 2 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	return c
}

// maxWindow caps Config.Window: an ack carries the cumulative ack plus a
// 32-bit selective-ack bitmap beyond it. The receiver relies on the cap:
// no correct sender transmits a frame maxWindow or more past the
// receiver's cumulative ack.
const maxWindow = 33

// Stats counts an endpoint's wire activity; read it with Endpoint.Stats.
type Stats struct {
	DataSent      int64 // data frames transmitted (including retransmissions)
	Retransmits   int64 // data frames transmitted more than once
	AcksSent      int64
	AcksReceived  int64
	CorruptFrames int64 // inbound datagrams rejected by the decoder
	MsgsSent      int64 // sends completed successfully
	MsgsReceived  int64 // messages fully reassembled and delivered
	Timeouts      int64 // sends failed on the retry budget
	// WriteCalls and ReadCalls count the conn calls the endpoint made. A
	// burst sent with one GSO write or a batch taken with one GRO read
	// counts once, as does each ack; on a per-datagram conn every frame
	// counts.
	WriteCalls int64
	ReadCalls  int64
}

// Message is one fully reassembled inbound message. Hdr and Payload alias
// a pooled buffer: copy what outlives the message and call Release.
type Message struct {
	Session uint32
	ID      uint32
	// From is the sender's observed address (reply-to for servers). It
	// is read-only: messages from one peer may share it.
	From net.Addr
	// Hdr is the message's header block (a server request or response header).
	Hdr []byte
	// Payload is the message body — the packed byte stream.
	Payload []byte

	buf *[]byte
}

// Release returns the message's reassembly buffer to the pool. The
// message must not be used afterwards.
func (m *Message) Release() {
	if m.buf != nil {
		putMsgBuf(m.buf)
		m.buf = nil
	}
}

// Endpoint is one end of a reliable connection: Send moves a message to
// the peer with sliding-window ARQ, Recv yields the messages the peer
// sent here. Both directions run concurrently over one PacketConn; a
// single reader goroutine dispatches inbound frames to the per-message
// sender and receiver state. Endpoints are safe for concurrent use.
type Endpoint struct {
	conn    net.PacketConn
	wire    wire
	peer    net.Addr // Send destination; may be nil for receive-only use
	session uint32
	cfg     Config

	mu      sync.Mutex
	tx      map[txKey]*txState
	rx      map[rxKey]*rxState
	rxDone  map[rxKey]uint32 // completed messages -> frame count (for re-acks)
	rxOrder []rxKey          // FIFO eviction of rxDone

	deliver chan Message
	closed  chan struct{}
	once    sync.Once

	stats struct {
		dataSent, retransmits, acksSent, acksReceived atomic.Int64
		corrupt, msgsSent, msgsReceived, timeouts     atomic.Int64
		writeCalls, readCalls                         atomic.Int64
	}

	rtt struct {
		sync.Mutex
		srtt, rttvar time.Duration
	}
}

// rxKey identifies one inbound message; the session id separates
// concurrent senders on a shared server socket.
type rxKey struct {
	session uint32
	message uint32
}

// txKey identifies one outbound message in flight. Keying sends by
// (session, message) — not message alone — lets one server endpoint hold
// concurrent responses to many peers whose per-session message ids
// collide.
type txKey struct {
	session uint32
	message uint32
}

// rxDoneCap bounds the completed-message memory used for re-acking
// duplicate frames of already-delivered messages.
const rxDoneCap = 1024

// NewEndpoint wraps conn in a reliable endpoint. peer is where Send
// transmits (nil for a receive-only endpoint — acks go to each frame's
// source address regardless). session tags every outbound frame; a
// receiver keyed by (session, message) can serve many senders as long as
// their session ids differ. The endpoint owns conn and closes it.
func NewEndpoint(conn net.PacketConn, peer net.Addr, session uint32, cfg Config) *Endpoint {
	e := &Endpoint{
		conn:    conn,
		wire:    newWire(conn),
		peer:    peer,
		session: session,
		cfg:     cfg.withDefaults(),
		tx:      make(map[txKey]*txState),
		rx:      make(map[rxKey]*rxState),
		rxDone:  make(map[rxKey]uint32),
		deliver: make(chan Message, 1024),
		closed:  make(chan struct{}),
	}
	go e.readLoop()
	return e
}

// Close shuts the endpoint down: the conn is closed, pending Sends and
// Recvs return ErrClosed. Close is idempotent.
func (e *Endpoint) Close() error {
	e.once.Do(func() {
		close(e.closed)
		e.conn.Close()
	})
	return nil
}

// LocalAddr returns the underlying conn's local address.
func (e *Endpoint) LocalAddr() net.Addr { return e.conn.LocalAddr() }

// Closed returns a channel that closes when the endpoint shuts down —
// a select hook for goroutines whose lifetime tracks the endpoint's.
func (e *Endpoint) Closed() <-chan struct{} { return e.closed }

// Stats returns a snapshot of the endpoint's wire counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		DataSent:      e.stats.dataSent.Load(),
		Retransmits:   e.stats.retransmits.Load(),
		AcksSent:      e.stats.acksSent.Load(),
		AcksReceived:  e.stats.acksReceived.Load(),
		CorruptFrames: e.stats.corrupt.Load(),
		MsgsSent:      e.stats.msgsSent.Load(),
		MsgsReceived:  e.stats.msgsReceived.Load(),
		Timeouts:      e.stats.timeouts.Load(),
		WriteCalls:    e.stats.writeCalls.Load(),
		ReadCalls:     e.stats.readCalls.Load(),
	}
}

// txState is the sender side of one in-flight message.
type txState struct {
	id      uint32
	session uint32
	dest    net.Addr
	hdr     []byte
	body    []byte
	prefix  [4]byte // u32 hdrLen — the stream's first bytes
	chunk   int
	total   int // stream length: 4 + len(hdr) + len(body)
	frames  int

	mu       sync.Mutex
	acked    []uint64
	ackedN   int
	base     int     // lowest unacked frame
	nextSend int     // lowest never-sent frame
	sentAt   []int64 // monotonic ns of latest transmission per frame
	txCount  []uint16

	progress chan struct{} // signaled on any new ack progress
	done     chan struct{} // closed when every frame is acked
	start    time.Time
}

func (t *txState) ackedBit(i int) bool { return t.acked[i/64]&(1<<uint(i%64)) != 0 }
func (t *txState) setAcked(i int) bool {
	if t.ackedBit(i) {
		return false
	}
	t.acked[i/64] |= 1 << uint(i%64)
	t.ackedN++
	return true
}

// streamAt copies the virtual stream [prefix|hdr|body] bytes [off,
// off+n) into dst. n is bounded by the stream length.
func (t *txState) streamAt(dst []byte, off int) int {
	n := 0
	for n < len(dst) && off+n < t.total {
		p := off + n
		switch {
		case p < 4:
			n += copy(dst[n:], t.prefix[p:])
		case p < 4+len(t.hdr):
			n += copy(dst[n:], t.hdr[p-4:])
		default:
			n += copy(dst[n:], t.body[p-4-len(t.hdr):])
		}
	}
	return n
}

// Send reliably transfers (hdr, body) to the peer as message id, blocking
// until every frame is acked or the retry budget is exhausted
// (ErrTimeout). Concurrent Sends of distinct messages interleave on the
// wire and are each acked independently.
func (e *Endpoint) Send(id uint32, hdr, body []byte) error {
	if e.peer == nil {
		return fmt.Errorf("transport: endpoint has no peer address")
	}
	return e.SendTo(e.peer, e.session, id, hdr, body)
}

// SendTo is Send with an explicit destination and session tag: the frames
// carry the given session id and travel to dest instead of the endpoint's
// configured peer. It is how a server endpoint answers many peers over
// one socket — each response is tagged with the requesting session and
// addressed to that session's observed source address (Message.From).
// Messages are keyed by (session, id), so ids only need to be unique per
// session.
func (e *Endpoint) SendTo(dest net.Addr, session, id uint32, hdr, body []byte) error {
	if dest == nil {
		return fmt.Errorf("transport: send without a destination address")
	}
	total := 4 + len(hdr) + len(body)
	frames := (total + e.cfg.MaxPayload - 1) / e.cfg.MaxPayload
	st := &txState{
		id: id, session: session, dest: dest, hdr: hdr, body: body,
		chunk: e.cfg.MaxPayload, total: total, frames: frames,
		acked:    make([]uint64, (frames+63)/64),
		sentAt:   make([]int64, frames),
		txCount:  make([]uint16, frames),
		progress: make(chan struct{}, 1),
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	binary.LittleEndian.PutUint32(st.prefix[:], uint32(len(hdr)))

	key := txKey{session: session, message: id}
	e.mu.Lock()
	if _, busy := e.tx[key]; busy {
		e.mu.Unlock()
		return fmt.Errorf("transport: message id %d already in flight on session %d", id, session)
	}
	e.tx[key] = st
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.tx, key)
		e.mu.Unlock()
	}()

	st.mu.Lock()
	err := e.sendWindow(st, false)
	st.mu.Unlock()
	if err != nil {
		return err
	}

	rto := e.rto()
	timer := time.NewTimer(rto)
	defer timer.Stop()
	retries := 0
	for {
		select {
		case <-st.done:
			e.stats.msgsSent.Add(1)
			return nil
		case <-st.progress:
			retries = 0
			rto = e.rto()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(rto)
		case <-timer.C:
			retries++
			if retries > e.cfg.MaxRetries {
				e.stats.timeouts.Add(1)
				return fmt.Errorf("%w: message %d, %d/%d frames acked after %d retries over %v",
					ErrTimeout, id, st.ackedN, st.frames, e.cfg.MaxRetries, time.Since(st.start).Round(time.Millisecond))
			}
			st.mu.Lock()
			err := e.sendWindow(st, true)
			st.mu.Unlock()
			if err != nil {
				return err
			}
			rto = min(2*rto, e.cfg.RTOMax)
			timer.Reset(rto)
		case <-e.closed:
			return ErrClosed
		}
	}
}

// sendWindow transmits one burst: with resend, every unacked in-window
// frame (the RTO path), then the never-sent frames the window has room
// for. Frames go in ascending seq order, so the only short frame, a
// message's last, ends the burst, as a GSO send requires. Called with
// st.mu held.
func (e *Endpoint) sendWindow(st *txState, resend bool) error {
	bp := burstPool.Get().(*[]byte)
	defer burstPool.Put(bp)
	buf := (*bp)[:0]
	if resend {
		for i := st.base; i < min(st.nextSend, st.base+e.cfg.Window); i++ {
			if !st.ackedBit(i) {
				buf = e.appendDataFrame(buf, st, i)
			}
		}
	}
	for ; st.nextSend < st.frames && st.nextSend < st.base+e.cfg.Window; st.nextSend++ {
		buf = e.appendDataFrame(buf, st, st.nextSend)
	}
	if len(buf) == 0 {
		return nil
	}
	calls, err := e.wire.writeBurst(buf, HeaderSize+st.chunk, st.dest)
	e.stats.writeCalls.Add(int64(calls))
	if err != nil && errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// wantsAck reports whether transmitting frame seq asks the receiver for
// an ack: every max(1, Window/4)-th frame, the frame that fills the
// window, the final frame and every retransmission. The newest frame in
// flight always asks, so the sender never waits on an ack it did not
// request. Called with st.mu held, before seq's transmission is counted.
func (e *Endpoint) wantsAck(st *txState, seq int) bool {
	w := e.cfg.Window
	return (seq+1)%max(1, w/4) == 0 || seq == st.base+w-1 || seq == st.frames-1 || st.txCount[seq] > 0
}

// appendDataFrame encodes frame seq of st onto buf and counts its
// transmission. Called with st.mu held.
func (e *Endpoint) appendDataFrame(buf []byte, st *txState, seq int) []byte {
	off := seq * st.chunk
	n := min(st.chunk, st.total-off)
	// Stage the payload where AppendFrame will place it; the append then
	// self-copies in place.
	at := len(buf)
	payload := buf[at+HeaderSize : at+HeaderSize+n]
	st.streamAt(payload, off)
	buf = AppendFrame(buf, &Frame{
		Type: FrameData, AckReq: e.wantsAck(st, seq), Session: st.session, Message: st.id,
		Seq: uint32(seq), Aux: uint32(st.frames), Payload: payload,
	})
	st.sentAt[seq] = time.Since(st.start).Nanoseconds()
	if st.txCount[seq] < ^uint16(0) {
		st.txCount[seq]++
	}
	e.stats.dataSent.Add(1)
	if st.txCount[seq] > 1 {
		e.stats.retransmits.Add(1)
	}
	return buf
}

// rto returns the current retransmission timeout estimate.
func (e *Endpoint) rto() time.Duration {
	e.rtt.Lock()
	defer e.rtt.Unlock()
	if e.rtt.srtt == 0 {
		return e.cfg.RTOMin * 4 // conservative pre-sample default
	}
	return max(e.cfg.RTOMin, min(e.rtt.srtt+4*e.rtt.rttvar, e.cfg.RTOMax))
}

// sampleRTT folds one measurement into the Jacobson estimator.
func (e *Endpoint) sampleRTT(rtt time.Duration) {
	e.rtt.Lock()
	defer e.rtt.Unlock()
	if e.rtt.srtt == 0 {
		e.rtt.srtt = rtt
		e.rtt.rttvar = rtt / 2
		return
	}
	diff := e.rtt.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	e.rtt.rttvar += (diff - e.rtt.rttvar) / 4
	e.rtt.srtt += (rtt - e.rtt.srtt) / 8
}

// readBufSize holds the largest batch one read returns: UDP GRO
// coalesces at most 64 KiB.
const readBufSize = 64 << 10

// readLoop is the endpoint's single inbound dispatcher. Each read is one
// batch: every frame in it is handled, then the acks it owes go out and
// the messages it completed are delivered.
func (e *Endpoint) readLoop() {
	buf := make([]byte, readBufSize)
	var b rxBatch
	for {
		n, seg, from, err := e.wire.readBatch(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			close(e.deliver)
			return
		}
		e.stats.readCalls.Add(1)
		for off := 0; ; off += seg {
			e.handleFrame(buf[off:min(off+seg, n)], from, &b)
			if off+seg >= n {
				break
			}
		}
		e.flushBatch(&b, from)
	}
}

// handleFrame decodes and dispatches one inbound frame of a batch.
func (e *Endpoint) handleFrame(pkt []byte, from net.Addr, b *rxBatch) {
	f, err := DecodeFrame(pkt)
	if err != nil {
		e.stats.corrupt.Add(1)
		return // corruption degrades to loss
	}
	switch f.Type {
	case FrameAck:
		e.stats.acksReceived.Add(1)
		e.handleAck(f)
	case FrameData:
		e.handleData(f, from, b)
	}
}

// handleAck applies one cumulative+selective ack to its sender state.
func (e *Endpoint) handleAck(f Frame) {
	e.mu.Lock()
	st := e.tx[txKey{session: f.Session, message: f.Message}]
	e.mu.Unlock()
	if st == nil {
		return // message already done (or never ours): stale ack
	}
	st.mu.Lock()
	newly := 0
	newest := -1 // newest newly acked frame transmitted once (Karn's rule)
	ackOne := func(i int) {
		if i < 0 || i >= st.frames || !st.setAcked(i) {
			return
		}
		newly++
		if st.txCount[i] == 1 && i > newest {
			newest = i
		}
	}
	cum := int(f.Seq)
	if cum > st.frames {
		cum = st.frames
	}
	for i := st.base; i < cum; i++ {
		ackOne(i)
	}
	for bm := f.Aux; bm != 0; {
		i := bits.TrailingZeros32(bm)
		bm &^= 1 << uint(i)
		ackOne(int(f.Seq) + 1 + i)
	}
	// One sample per ack, from the frame whose transmission the ack
	// answers: the older frames it covers waited for the ack request.
	if newest >= 0 {
		e.sampleRTT(time.Duration(time.Since(st.start).Nanoseconds() - st.sentAt[newest]))
	}
	complete := st.ackedN == st.frames
	if newly > 0 {
		for st.base < st.frames && st.ackedBit(st.base) {
			st.base++
		}
		e.sendWindow(st, false) // the window slid: keep the pipe full
	}
	st.mu.Unlock()

	if newly > 0 {
		if complete {
			close(st.done)
		} else {
			select {
			case st.progress <- struct{}{}:
			default:
			}
		}
	}
}

// rxState is the receiver side of one in-flight message. The sender
// never runs maxWindow frames past cum, so the frames held out of order
// fit one word, and the reassembly buffer grows with cum rather than
// with the frame count the first frame claims.
type rxState struct {
	frames  int
	chunk   int
	cum     int     // frames [0, cum) all received
	ahead   uint64  // bit i set: frame cum+i received (bit 0 never is)
	buf     *[]byte // pooled reassembly buffer, a whole number of chunks
	lastLen int     // payload length of the final frame (0 = not yet seen)
	from    net.Addr
}

// hold makes room for frame seq in the reassembly buffer, at least
// doubling it, up to the whole message.
func (r *rxState) hold(seq int) {
	have := len(*r.buf) / r.chunk
	if seq < have {
		return
	}
	nb := getMsgBuf(min(max(seq+1, 2*have), r.frames) * r.chunk)
	copy(*nb, *r.buf)
	putMsgBuf(r.buf)
	r.buf = nb
}

// rxBatch is the read loop's state for one batch: the messages it owes
// an ack, the messages it completed, and the ack encoding buffer.
type rxBatch struct {
	acks []rxKey
	done []Message
	pkt  []byte
}

// handleData stores one data frame, notes an owed ack when the ack
// scheme calls for one, and collects the message when it completes.
func (e *Endpoint) handleData(f Frame, from net.Addr, b *rxBatch) {
	key := rxKey{session: f.Session, message: f.Message}
	frames := int(f.Aux)
	seq := int(f.Seq)
	if frames <= 0 || seq < 0 || seq >= frames || len(f.Payload) > e.cfg.MaxPayload ||
		seq < frames-1 && len(f.Payload) != e.cfg.MaxPayload {
		// Nonsense geometry: drop. A non-final frame that is not exactly
		// one chunk comes from a peer with another MaxPayload; stored at
		// seq*MaxPayload it would leave gaps in the message.
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, done := e.rxDone[key]; done {
		// The sender missed our final ack: re-ack with a full cumulative
		// ack so it can finish.
		b.owe(key)
		return
	}
	st := e.rx[key]
	switch {
	case st == nil && seq < maxWindow:
		st = &rxState{
			frames: frames,
			chunk:  e.cfg.MaxPayload,
			buf:    getMsgBuf(min(frames, 2*maxWindow) * e.cfg.MaxPayload),
			from:   from,
		}
		e.rx[key] = st
	case st == nil || frames != st.frames || seq >= st.cum+maxWindow:
		// Inconsistent with the message's geometry, or further ahead than
		// any sender's window reaches: a forged frame must not size what
		// the receiver holds.
		return
	}
	// A duplicate is never the next expected frame: bit 0 is clear.
	inOrder := seq == st.cum
	if seq >= st.cum && st.ahead&(1<<(seq-st.cum)) == 0 {
		st.hold(seq)
		copy((*st.buf)[seq*st.chunk:], f.Payload)
		if seq == frames-1 {
			st.lastLen = len(f.Payload)
		}
		st.ahead |= 1 << (seq - st.cum)
		n := bits.TrailingZeros64(^st.ahead)
		st.ahead >>= n
		st.cum += n
	}
	complete := st.cum == st.frames
	// Ack on request, on completion, and whenever the sender has
	// something to repair: a frame out of order, a duplicate, or holes
	// still open below the highest frame received.
	if f.AckReq || complete || !inOrder || st.ahead != 0 {
		b.owe(key)
	}
	if !complete {
		return
	}
	delete(e.rx, key)
	total := (st.frames-1)*st.chunk + st.lastLen
	stream := (*st.buf)[:total]
	hdrLen := -1
	if total >= 4 {
		hdrLen = int(binary.LittleEndian.Uint32(stream))
	}
	if hdrLen < 0 || 4+hdrLen > total {
		// A sender bug or a forged stream; drop the message rather than
		// deliver garbage (every frame passed its checksum, so this
		// cannot be wire corruption). It is owed no ack.
		putMsgBuf(st.buf)
		return
	}
	b.done = append(b.done, Message{
		Session: f.Session, ID: f.Message, From: st.from,
		Hdr: stream[4 : 4+hdrLen], Payload: stream[4+hdrLen:], buf: st.buf,
	})
	e.rxDone[key] = uint32(st.frames)
	e.rxOrder = append(e.rxOrder, key)
	if len(e.rxOrder) > rxDoneCap {
		evict := e.rxOrder[0]
		e.rxOrder = e.rxOrder[1:]
		delete(e.rxDone, evict)
	}
}

// owe records that the batch owes message key an ack.
func (b *rxBatch) owe(key rxKey) {
	if !slices.Contains(b.acks, key) {
		b.acks = append(b.acks, key)
	}
}

// flushBatch sends the acks a batch owes, one per message, each carrying
// the receive state after the whole batch, then delivers the messages
// the batch completed. A batch of one frame acks exactly as that frame
// alone calls for.
func (e *Endpoint) flushBatch(b *rxBatch, to net.Addr) {
	for _, key := range b.acks {
		e.mu.Lock()
		var cum, bitmap uint32
		st, open := e.rx[key]
		total, done := e.rxDone[key]
		switch {
		case open:
			cum, bitmap = uint32(st.cum), uint32(st.ahead>>1)
		case done:
			cum = total
		}
		e.mu.Unlock()
		if open || done {
			e.sendAck(b, to, key, cum, bitmap)
		}
	}
	b.acks = b.acks[:0]
	for i, msg := range b.done {
		b.done[i] = Message{}
		e.stats.msgsReceived.Add(1)
		select {
		case e.deliver <- msg:
		case <-e.closed:
			msg.Release()
		}
	}
	b.done = b.done[:0]
}

// sendAck transmits one ack frame to addr, encoded in the batch's
// buffer.
func (e *Endpoint) sendAck(b *rxBatch, addr net.Addr, key rxKey, cum, bitmap uint32) {
	b.pkt = AppendFrame(b.pkt[:0], &Frame{
		Type: FrameAck, Session: key.session, Message: key.message,
		Seq: cum, Aux: bitmap,
	})
	e.stats.acksSent.Add(1)
	calls, _ := e.wire.writeBurst(b.pkt, len(b.pkt), addr) // a lost ack costs one RTO
	e.stats.writeCalls.Add(int64(calls))
}

// Recv returns the next fully reassembled inbound message, waiting up to
// timeout (0 means wait indefinitely). It fails with ErrClosed once the
// endpoint is closed and drained, and with ErrTimeout when the wait
// expires.
func (e *Endpoint) Recv(timeout time.Duration) (Message, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case m, ok := <-e.deliver:
		if !ok {
			return Message{}, ErrClosed
		}
		return m, nil
	case <-timer:
		return Message{}, fmt.Errorf("%w: no message within %v", ErrTimeout, timeout)
	}
}

// msgPool recycles reassembly buffers (message-sized, up to tens of MiB)
// as *[]byte handles, so recycling one allocates nothing.
var msgPool sync.Pool

// getMsgBuf returns a pooled handle to a length-n buffer with arbitrary
// contents. A pooled buffer too small for n gets a new backing array
// under the same handle.
func getMsgBuf(n int) *[]byte {
	b, _ := msgPool.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	if cap(*b) < n {
		c := max(n, 4096)
		*b = make([]byte, 0, 1<<bits.Len(uint(c-1)))
	}
	*b = (*b)[:n]
	return b
}

// putMsgBuf recycles a handle obtained from getMsgBuf.
func putMsgBuf(b *[]byte) { msgPool.Put(b) }
