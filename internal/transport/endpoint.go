package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
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
	// 33 — the cumulative ack plus the 32-bit SACK bitmap). It also sets
	// the sender's ack-request stride, max(1, Window/4) frames.
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
	if c.Window <= 0 || c.Window > 33 {
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
}

// Message is one fully reassembled inbound message. Hdr and Payload alias
// a pooled buffer: copy what outlives the message and call Release.
type Message struct {
	Session uint32
	ID      uint32
	// From is the sender's observed address (reply-to for servers).
	From net.Addr
	// Hdr is the exchange-format header block (see EncodeWireMeta).
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
	nextID  atomic.Uint32

	stats struct {
		dataSent, retransmits, acksSent, acksReceived atomic.Int64
		corrupt, msgsSent, msgsReceived, timeouts     atomic.Int64
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
	}
}

// NextMessageID returns a fresh outbound message id (sequential per
// endpoint).
func (e *Endpoint) NextMessageID() uint32 { return e.nextID.Add(1) - 1 }

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
	err := e.fillWindow(st)
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
			err := e.retransmitWindow(st)
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

// fillWindow transmits never-sent frames while the window has room.
// Called with st.mu held.
func (e *Endpoint) fillWindow(st *txState) error {
	for st.nextSend < st.frames && st.nextSend < st.base+e.cfg.Window {
		if err := e.sendDataFrame(st, st.nextSend); err != nil {
			return err
		}
		st.nextSend++
	}
	return nil
}

// retransmitWindow resends every unacked in-window frame (the RTO path).
// Called with st.mu held.
func (e *Endpoint) retransmitWindow(st *txState) error {
	hi := min(st.nextSend, st.base+e.cfg.Window)
	for i := st.base; i < hi; i++ {
		if st.ackedBit(i) {
			continue
		}
		if err := e.sendDataFrame(st, i); err != nil {
			return err
		}
	}
	return e.fillWindow(st)
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

// sendDataFrame encodes and transmits frame seq of st. Called with st.mu
// held.
func (e *Endpoint) sendDataFrame(st *txState, seq int) error {
	off := seq * st.chunk
	n := min(st.chunk, st.total-off)
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	// Stage the payload where AppendFrame will place it; the append then
	// self-copies in place, so one pooled buffer serves the whole frame.
	buf := (*bp)[:0]
	payload := buf[HeaderSize : HeaderSize+n]
	st.streamAt(payload, off)
	pkt := AppendFrame(buf, &Frame{
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
	_, err := e.conn.WriteTo(pkt, st.dest)
	if err != nil && errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
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

// readLoop is the endpoint's single inbound dispatcher.
func (e *Endpoint) readLoop() {
	buf := make([]byte, MaxFrameSize)
	for {
		n, from, err := e.conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			close(e.deliver)
			return
		}
		f, err := DecodeFrame(buf[:n])
		if err != nil {
			e.stats.corrupt.Add(1)
			continue // corruption degrades to loss
		}
		switch f.Type {
		case FrameAck:
			e.stats.acksReceived.Add(1)
			e.handleAck(f)
		case FrameData:
			e.handleData(f, from)
		}
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
		e.fillWindow(st) // the window slid: keep the pipe full
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

// rxState is the receiver side of one in-flight message.
type rxState struct {
	frames  int
	chunk   int
	have    []uint64
	haveN   int
	cum     int     // frames [0, cum) all received
	buf     *[]byte // pooled reassembly buffer, frames*chunk bytes
	lastLen int     // payload length of the final frame (0 = not yet seen)
	from    net.Addr
}

func (r *rxState) haveBit(i int) bool { return r.have[i/64]&(1<<uint(i%64)) != 0 }

// handleData stores one data frame, acks it when the ack scheme calls
// for one, and delivers the message when it completes.
func (e *Endpoint) handleData(f Frame, from net.Addr) {
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
	if total, done := e.rxDone[key]; done {
		e.mu.Unlock()
		// The sender missed our final ack: re-ack with a full cumulative
		// ack so it can finish.
		e.sendAck(from, f.Session, f.Message, total, 0)
		return
	}
	st := e.rx[key]
	if st == nil {
		st = &rxState{
			frames: frames,
			chunk:  e.cfg.MaxPayload,
			have:   make([]uint64, (frames+63)/64),
			buf:    getMsgBuf(frames * e.cfg.MaxPayload),
			from:   from,
		}
		e.rx[key] = st
	}
	if frames != st.frames {
		e.mu.Unlock()
		return // inconsistent with the message's established geometry
	}
	// A duplicate is never the next expected frame: bit cum is unset.
	inOrder := seq == st.cum
	if !st.haveBit(seq) {
		st.have[seq/64] |= 1 << uint(seq%64)
		st.haveN++
		copy((*st.buf)[seq*st.chunk:], f.Payload)
		if seq == frames-1 {
			st.lastLen = len(f.Payload)
		}
		for st.cum < st.frames && st.haveBit(st.cum) {
			st.cum++
		}
	}
	complete := st.haveN == st.frames
	// Ack on request, on completion, and whenever the sender has
	// something to repair: a frame out of order, a duplicate, or holes
	// still open below the highest frame received.
	if !f.AckReq && !complete && inOrder && st.haveN == st.cum {
		e.mu.Unlock()
		return
	}
	cum := uint32(st.cum)
	var bitmap uint32
	for i := 0; i < 32; i++ {
		j := st.cum + 1 + i
		if j >= st.frames {
			break
		}
		if st.haveBit(j) {
			bitmap |= 1 << uint(i)
		}
	}
	var msg Message
	if complete {
		total := (st.frames-1)*st.chunk + st.lastLen
		stream := (*st.buf)[:total]
		hdrLen := int(binary.LittleEndian.Uint32(stream))
		if 4+hdrLen > total {
			// A sender bug or a forged stream; drop the message rather
			// than deliver garbage (every frame passed its checksum, so
			// this cannot be wire corruption).
			putMsgBuf(st.buf)
			delete(e.rx, key)
			e.mu.Unlock()
			return
		}
		msg = Message{
			Session: f.Session, ID: f.Message, From: st.from,
			Hdr: stream[4 : 4+hdrLen], Payload: stream[4+hdrLen:], buf: st.buf,
		}
		delete(e.rx, key)
		e.rxDone[key] = uint32(st.frames)
		e.rxOrder = append(e.rxOrder, key)
		if len(e.rxOrder) > rxDoneCap {
			evict := e.rxOrder[0]
			e.rxOrder = e.rxOrder[1:]
			delete(e.rxDone, evict)
		}
	}
	e.mu.Unlock()

	e.sendAck(from, f.Session, f.Message, cum, bitmap)
	if complete {
		e.stats.msgsReceived.Add(1)
		select {
		case e.deliver <- msg:
		case <-e.closed:
			msg.Release()
		}
	}
}

// sendAck transmits one ack frame to addr.
func (e *Endpoint) sendAck(addr net.Addr, session, message, cum, bitmap uint32) {
	bp := getFrameBuf()
	pkt := AppendFrame((*bp)[:0], &Frame{
		Type: FrameAck, Session: session, Message: message,
		Seq: cum, Aux: bitmap,
	})
	e.stats.acksSent.Add(1)
	e.conn.WriteTo(pkt, addr)
	putFrameBuf(bp)
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
