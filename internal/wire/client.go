package wire

import (
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
	// Conns is how many connections the client's rounds rotate over
	// (default DefaultConns). Many callers sharing few connections is the
	// intended shape: requests pipeline down each connection and complete
	// out of order, so one connection sustains many in-flight callers.
	Conns int
	// Timeout is how long a connection may leave any request unanswered
	// (default DefaultTimeout). It is a rule about the connection, not a
	// deadline per call (see conn.go): a call fails between Timeout and
	// 1.25×Timeout after it was sent. It bounds the dial as well.
	Timeout time.Duration
}

// The option defaults.
const (
	DefaultConns   = 2
	DefaultTimeout = 30 * time.Second
)

// Client speaks the binary RPC plane: a fixed pool of persistent
// pipelined connections (conn.go), whose pending entries are its
// callers' calls. Callers' encoded frames accumulate in a connection's
// write queue and are flushed in groups (the journal's group-commit
// shape): the caller whose frame finds the queue empty owns the round's
// flush and, unless it is the only one using the client, yields once
// first, so concurrent callers share one writev on the way out the same
// way the server coalesces them on the way back. A connection is picked
// per round, not per call: callers post on the current one until its
// flusher moves the client on to the next, so a round is one writev,
// and on the server one drain pass and, for writes, one fsync.
//
// A connection that fails is failed as a whole: every pending call gets
// a TransportError, and the slot is re-dialed on next use — on the new
// connection's own goroutine, so callers that find a server unreachable
// wait out one dial together, not one each.
// Idempotent reads (Lookup, LookupBatch) retry once on a fresh
// connection; ApplyBatch is never resent after a transport failure,
// because the burst may have been applied before the connection died —
// unless the connection never had a socket to send it on.
// All methods are safe for concurrent use.
type Client struct {
	opts  Options
	dial  func() (net.Conn, error) // to the server, bounded by Timeout; tests put their own here
	next  atomic.Uint64
	calls atomic.Int32 // round trips in progress
	pool  []*slot[*call]
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
	c := newClient(opts, func() (net.Conn, error) { return net.DialTimeout("tcp", addr, opts.Timeout) })
	nc, err := c.dial()
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	c.pool[0].u.Store(c.connect(nc))
	return c, nil
}

func newClient(opts Options, dial func() (net.Conn, error)) *Client {
	c := &Client{opts: opts, dial: dial, pool: make([]*slot[*call], opts.Conns)}
	open := func() *upstream[*call] { return c.connect(nil) }
	for i := range c.pool {
		c.pool[i] = &slot[*call]{open: open}
	}
	return c
}

// connect starts a pooled connection over nc, or with nc nil over a
// socket the connection dials itself. An orphaned call gets the
// connection's failure as its TransportError.
func (c *Client) connect(nc net.Conn) *upstream[*call] {
	u := newUpstream[*call](nc, c.opts.Timeout, nil)
	go u.run(c.dial, func() {},
		func(payload []byte) error { return dispatch(u, payload) },
		func(ca *call, sent bool, cause error) { ca.done <- &TransportError{Err: cause, unsent: !sent} })
	return u
}

// Close hangs up every pooled connection; in-flight calls fail with a
// TransportError.
func (c *Client) Close() error {
	for _, s := range c.pool {
		s.hangUp(errors.New("client closed"))
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

// roundTrip sends req on the current round's connection and waits for
// its response. A transport failure is retried once on a fresh connection
// when the request is idempotent or was never sent (its connection's
// dial failed, or had failed already).
func (c *Client) roundTrip(req Request, ca *call, idempotent bool) error {
	var err error
	alone := c.calls.Add(1) == 1
	defer c.calls.Add(-1)
	for attempt := 0; attempt < 2; attempt++ {
		u := c.pool[c.next.Load()%uint64(len(c.pool))].live()
		if u == nil {
			return transportErrf("client closed")
		}
		err = c.do(u, req, ca, alone)
		if te, failed := err.(*TransportError); !failed || !(idempotent || te.unsent) {
			return err
		}
	}
	return err
}

// call is one in-flight request's completion slot, pooled across
// calls. done is buffered so the reader never blocks handing off a
// result, and it is sent to exactly once per registration in pending —
// by dispatch or as an orphan, whichever takes the entry — so a
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

// do posts req on u and waits for the reader (or a failure of the
// connection, the watchdog's included) to complete ca. The caller that
// is elected to flush ends the round: it moves the client on to the
// next connection after its yield, so every caller runnable during the
// yield has joined this round, and before its kick, so a writev stuck
// on a peer that stopped reading holds only this round.
func (c *Client) do(u *upstream[*call], req Request, ca *call, alone bool) error {
	elected, err := u.post(ca, func(q *writeQueue, seq uint64) error {
		req.Seq = seq
		mark := q.mark()
		buf, err := AppendRequest(appendFrameHeader(q.active), req)
		if err != nil {
			q.active = q.active[:mark]
			return err // invalid input, not a transport failure
		}
		q.sealFrameAt(buf, mark)
		return nil
	})
	if err != nil {
		return err
	}
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
		c.next.Add(1)
		u.kick()
	}
	return <-ca.done
}

// dispatch decodes one response payload into its pending call and
// completes it, in whatever order the server answered; results are
// copied into caller-owned memory before the next read. A payload that
// does not decode, or answers with the wrong type or entry count, is
// protocol corruption: the call gets a TransportError and the
// connection is failed (the caller returns the error).
func dispatch(u *upstream[*call], payload []byte) error {
	// Only the seq is read ahead of the walk: it says whose memory the
	// body is to land in.
	d := cursorAt(payload, min(2, len(payload)))
	seq, err := d.Uvarint()
	if err != nil {
		return err
	}
	ca, err := u.claim(seq)
	if err != nil {
		return err
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
