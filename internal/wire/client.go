package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/fleet"
)

// Options tunes Dial.
type Options struct {
	// Conns is the connection pool size (default DefaultConns). Many
	// callers sharing few connections is the intended shape: requests
	// pipeline down each connection and complete out of order, so one
	// connection sustains many in-flight callers.
	Conns int
	// Timeout is how long a connection may leave any request unanswered
	// (default DefaultTimeout). It is a rule about the connection, not a
	// deadline per call: a watchdog looks every Timeout/4, and a
	// connection found owing an answer for Timeout is failed as a whole,
	// so a call fails between Timeout and 1.25×Timeout after it was sent.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (default Timeout).
	DialTimeout time.Duration
}

// The option defaults.
const (
	DefaultConns   = 2
	DefaultTimeout = 30 * time.Second
)

// Client speaks the binary RPC plane: a fixed pool of persistent
// connections, each carrying many pipelined in-flight requests tagged
// with sequence numbers and completed out of order by a reader
// goroutine. Callers' encoded frames accumulate in a shared write
// queue and are flushed in groups (the journal's group-commit shape):
// the caller whose frame finds the queue empty owns the round's flush
// and, unless it is the only one using the client, yields once first,
// so concurrent callers share one writev on the way out the same way
// the server coalesces them on the way back.
//
// A connection that fails — or that leaves any request unanswered for
// Timeout, checked every Timeout/4 by one watchdog per connection — is
// failed as a whole: every pending call gets a TransportError, and the
// slot is re-dialed lazily on next use.
// Idempotent reads (Lookup, LookupBatch) retry once on a fresh
// connection; ApplyBatch is never resent after a transport failure,
// because the burst may have been applied before the connection died.
// All methods are safe for concurrent use.
type Client struct {
	addr   string
	opts   Options
	next   atomic.Uint64
	calls  atomic.Int32 // round trips in progress
	pool   []*connSlot
	closed atomic.Bool
}

type connSlot struct {
	mu sync.Mutex // held around the re-dial only
	cc atomic.Pointer[clientConn]
}

// Dial connects to a wire server. The first connection is established
// eagerly so a bad address fails here, not on the first call.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = DefaultConns
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = opts.Timeout
	}
	c := &Client{addr: addr, opts: opts, pool: make([]*connSlot, opts.Conns)}
	for i := range c.pool {
		c.pool[i] = &connSlot{}
	}
	cc, err := dialConn(addr, opts)
	if err != nil {
		return nil, err
	}
	c.pool[0].cc.Store(cc)
	return c, nil
}

// Close hangs up every pooled connection; in-flight calls fail with a
// TransportError.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, s := range c.pool {
		s.mu.Lock()
		if cc := s.cc.Load(); cc != nil {
			cc.fail(errors.New("client closed"))
		}
		s.mu.Unlock()
	}
	return nil
}

// Lookup answers where target node x of instance id runs now, plus the
// epoch of the snapshot that answered.
func (c *Client) Lookup(id string, x int) (phi int, epoch uint64, err error) {
	ca := getCall(MsgLookup)
	defer putCall(ca)
	err = c.roundTrip(Request{Type: MsgLookup, ID: id, X: x}, ca, true)
	return ca.resp.Phi, ca.resp.Epoch, err
}

// LookupBatch resolves xs in one frame each way, writing the answers
// into phis (which must have len(xs)) and returning the epoch of the
// single snapshot that answered the whole batch.
func (c *Client) LookupBatch(id string, xs, phis []int) (epoch uint64, err error) {
	if len(phis) != len(xs) {
		return 0, fmt.Errorf("wire: phis has len %d, want %d", len(phis), len(xs))
	}
	ca := getCall(MsgLookupBatch)
	ca.phis = phis
	defer putCall(ca)
	err = c.roundTrip(Request{Type: MsgLookupBatch, ID: id, Xs: xs}, ca, true)
	return ca.resp.Epoch, err
}

// ApplyBatch applies a whole fault burst as one atomic transition.
// After a TransportError the burst's fate is unknown (it may have
// committed just before the connection died) and it is NOT resent;
// the caller decides whether re-applying is safe.
func (c *Client) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	ca := getCall(MsgApplyBatch)
	defer putCall(ca)
	err := c.roundTrip(Request{Type: MsgApplyBatch, ID: id, Events: events}, ca, false)
	return ca.resp.Result, err
}

// roundTrip sends req on a pooled connection and waits for its
// response. Transport failures retry once on a fresh connection for
// idempotent requests only; dial failures (nothing sent) retry for
// everything.
func (c *Client) roundTrip(req Request, ca *call, idempotent bool) error {
	var err error
	alone := c.calls.Add(1) == 1
	defer c.calls.Add(-1)
	for attempt := 0; attempt < 2; attempt++ {
		var cc *clientConn
		if cc, err = c.conn(); err != nil {
			continue // nothing was sent; a retry is safe for any request
		}
		if err = cc.do(req, ca, alone); err == nil || !IsTransport(err) {
			return err
		}
		if !idempotent {
			return err
		}
	}
	return err
}

// conn returns a live pooled connection, re-dialing its slot if the
// previous one failed. The pick itself takes no lock. closed is read
// under the slot lock, which Close takes only after setting it: a dial
// that began before Close is hung up by Close's sweep of the slot, and
// none begins after.
func (c *Client) conn() (*clientConn, error) {
	s := c.pool[c.next.Add(1)%uint64(len(c.pool))]
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	if c.closed.Load() {
		return nil, transportErrf("client closed")
	}
	cc, err := dialConn(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	s.cc.Store(cc)
	return cc, nil
}

// call is one in-flight request's completion slot, pooled across
// calls. done is buffered so the reader never blocks handing off a
// result, and it is sent to exactly once per registration in pending —
// by dispatch or by failLocked, whichever removes the entry — so a
// call is quiescent when its one receive returns.
type call struct {
	done chan error
	t    MsgType
	phis []int    // LookupBatch: caller-provided destination
	resp Response // the reader decodes the answer here before completing done
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan error, 1)} }}

func getCall(t MsgType) *call {
	ca := callPool.Get().(*call)
	ca.t = t
	return ca
}

func putCall(ca *call) {
	ca.phis, ca.resp = nil, Response{}
	callPool.Put(ca)
}

// clientConn is one pooled connection: callers append to the sender's
// write queue, the one whose frame found it empty flushes the round,
// and a reader goroutine matches response frames to pending calls by
// sequence number. The sender's mutex also guards seq, pending, err
// and marks.
type clientConn struct {
	sender
	timeout time.Duration
	dead    atomic.Bool // err != nil, readable without the lock

	seq      uint64
	pending  map[uint64]*call
	err      error       // first failure; set once, fails all pending
	watchdog *time.Timer // checkAge, re-armed while the connection lives
	marks    [4]uint64   // seq at each of the last four checks, oldest first
}

func dialConn(addr string, opts Options) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	return newClientConn(nc, opts.Timeout), nil
}

func newClientConn(nc net.Conn, timeout time.Duration) *clientConn {
	cc := &clientConn{sender: sender{nc: nc}, timeout: timeout, pending: make(map[uint64]*call)}
	cc.mu.Lock() // checkAge reads the field it is being assigned to
	cc.watchdog = time.AfterFunc(watchEvery(timeout), cc.checkAge)
	cc.mu.Unlock()
	go cc.readLoop()
	return cc
}

// checkAge is the connection's watchdog, the proxy's rule on the
// client's side: a connection that leaves any request unanswered for
// Timeout is failed as a whole. One timer per connection stands in for
// a deadline per call, and no call reads a clock: a request whose seq
// is at or below the seq four checks ago was sent at least Timeout ago.
// Closing the socket also unblocks a flusher stuck in writev against a
// peer that stopped reading.
func (cc *clientConn) checkAge() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for seq := range cc.pending {
		if seq <= cc.marks[0] {
			cc.failLocked(fmt.Errorf("no response within %v", cc.timeout))
			break
		}
	}
	if cc.err == nil {
		copy(cc.marks[:], cc.marks[1:])
		cc.marks[len(cc.marks)-1] = cc.seq
		cc.watchdog.Reset(watchEvery(cc.timeout))
	}
}

// do encodes req into the shared write queue, registers ca under a fresh
// sequence number and waits for the reader (or a failure of the
// connection, the watchdog's included) to complete ca. The caller whose
// frame finds the queue empty flushes the round; take() empties the
// queue under the same lock, so the next appender elects itself, and a
// frame appended while a writev is in the kernel leaves in that
// flusher's next turn.
func (cc *clientConn) do(req Request, ca *call, alone bool) error {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return &TransportError{Err: err}
	}
	cc.seq++
	req.Seq = cc.seq
	elected := cc.wq.queued == 0
	mark := cc.wq.mark()
	buf, err := AppendRequest(appendFrameHeader(cc.wq.active), req)
	if err != nil {
		cc.wq.active = cc.wq.active[:mark]
		cc.mu.Unlock()
		return err // invalid input, not a transport failure
	}
	cc.wq.sealFrameAt(buf, mark)
	cc.pending[req.Seq] = ca
	cc.mu.Unlock()
	if elected {
		if !alone {
			// Other round trips are in progress on this client, and their
			// callers tend to become runnable together (one read pass of a
			// reader completes several). Yield once: every caller that is
			// runnable right now appends to this round and goes straight to
			// its receive, and one writev carries them all. A lone caller
			// has nobody to wait for and flushes at once.
			runtime.Gosched()
		}
		// A flush failure fails the whole connection, which delivers a
		// TransportError to every pending call — this one and the ones
		// queued behind it — so the receive below completes either way.
		if _, err := cc.flush(); err != nil {
			cc.fail(err)
		}
	}
	return <-ca.done
}

// readLoop is the connection's single reader: it decodes response
// frames and completes the matching pending call, in whatever order
// the server answered. The receive buffer is a pooled class buffer
// reused across frames (dispatch copies results into caller-owned
// memory before the next read, so reuse is safe) and recirculated to
// the pool when the connection dies.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, readBufSize)
	var buf []byte
	defer func() { putBuf(buf) }()
	for {
		payload, err := readFrame(br, &buf)
		if err == nil {
			err = cc.dispatch(payload)
		}
		if err != nil {
			cc.fail(err)
			return
		}
	}
}

// dispatch decodes one response payload into its pending call and
// completes it. A payload that does not decode, or answers with the
// wrong type or entry count, is protocol corruption: the call gets a
// TransportError and the connection is failed (the caller returns the
// error).
func (cc *clientConn) dispatch(payload []byte) error {
	// Only the seq is read ahead of the walk: it says whose memory the
	// body is to land in.
	d := cursorAt(payload, min(2, len(payload)))
	seq, err := d.Uvarint()
	if err != nil {
		return err
	}
	cc.mu.Lock()
	ca := cc.pending[seq]
	delete(cc.pending, seq)
	cc.mu.Unlock()
	if ca == nil { // no call ever withdraws, so nothing honest sends this
		return fmt.Errorf("response to seq %d, which is not pending", seq)
	}
	// A LookupBatch answer lands directly in the caller's slice; the
	// capacity is clipped so an over-long answer cannot spill past it.
	ca.resp = Response{Phis: ca.phis[:0:len(ca.phis)]}
	h, err := walkResponse(payload, &ca.resp)
	switch {
	case err != nil:
	case h.t != ca.t:
		err = fmt.Errorf("response type %v to a %v request", h.t, ca.t)
	case h.status != StatusOK:
		ca.done <- &Error{Status: h.status, Msg: ca.resp.Msg, Owner: ca.resp.Owner}
		return nil
	case len(ca.resp.Phis) != len(ca.phis):
		err = fmt.Errorf("lookup batch answered %d of %d entries", len(ca.resp.Phis), len(ca.phis))
	}
	if err != nil {
		ca.done <- &TransportError{Err: err}
	} else {
		ca.done <- nil
	}
	return err
}

func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	cc.failLocked(err)
	cc.mu.Unlock()
}

// failLocked marks the connection dead exactly once, closes it (which
// also stops the reader), and fails every pending call.
func (cc *clientConn) failLocked(err error) {
	if cc.err != nil {
		return
	}
	cc.err = err
	cc.dead.Store(true)
	cc.watchdog.Stop()
	cc.nc.Close()
	for seq, ca := range cc.pending {
		delete(cc.pending, seq)
		ca.done <- &TransportError{Err: err}
	}
}
