package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/obs"
)

// This file is the one pipelined connection to a wire server. Client
// and Proxy are its two owners: what waits for an answer is a call to
// complete for the one, a relay to forward for the other.
//
// Posting puts an entry's frame on the write queue under a sequence
// number of the connection and makes the entry pending. Claiming takes
// the entry an answer's seq names out of pending; no entry ever
// withdraws, so an answer to a seq that is not pending is corruption.
// Failing — a read or write error, corruption, the watchdog, the owner
// closing — happens once: it closes the socket, and nothing is posted
// after it. Orphaning is the connection's goroutine, on its way out,
// handing each entry still pending back to the owner and saying whether
// the connection ever had a socket; when it had none (the dial failed)
// the frame provably never left, and sending it again is safe whatever
// it asks for. Every posted entry is claimed or orphaned, exactly once.
//
// Timeout is a rule about the connection, not a deadline per request:
// one that leaves a request unanswered for Timeout after it was posted
// there, looked at every Timeout/4, is failed as a whole, so its
// entries are orphaned between Timeout and 1.25×Timeout after posting.
// Timeout bounds the dial too.
//
// Whoever puts a frame on an empty write queue flushes it: a Client
// caller before it waits (yielding once first when others are calling,
// then ending the round: later callers post on the client's next
// connection), a Proxy reader when its round finishes. take()
// empties the queue under the lock frames are appended under, so a
// frame that arrives behind a writev in the kernel is either picked up
// by that flusher's own loop or elects its appender.

// upstream is one such connection; E is what waits. The sender's mutex
// also guards seq, pending, err and marks, and nc is nil until run has
// a socket.
type upstream[E any] struct {
	sender
	timeout time.Duration
	dead    atomic.Bool // err != nil, readable without the lock

	seq      uint64
	pending  map[uint64]E
	err      error       // first failure; set once
	watchdog *time.Timer // checkAge, re-armed while the connection lives
	marks    [4]uint64   // seq at each of the last four checks, oldest first
}

// newUpstream makes a connection over nc, or with nc nil over the
// socket its run is yet to dial: frames posted meanwhile queue behind
// the dial, and run holds the flush token until there is a socket.
func newUpstream[E any](nc net.Conn, timeout time.Duration, frames *obs.Histogram) *upstream[E] {
	u := &upstream[E]{sender: sender{nc: nc, frames: frames}, timeout: timeout, pending: make(map[uint64]E)}
	u.flushing = nc == nil
	u.mu.Lock() // checkAge reads the field it is being assigned to
	u.watchdog = time.AfterFunc(watchEvery(timeout), u.checkAge)
	u.mu.Unlock()
	return u
}

// watchEvery is how often the watchdog looks: often enough that a
// stalled peer is cut off soon after Timeout.
func watchEvery(timeout time.Duration) time.Duration { return max(timeout/4, time.Millisecond) }

// checkAge is the watchdog. One timer per connection stands in for a
// deadline per request, and nothing reads a clock: a request whose seq
// is at or below the seq four checks ago was posted at least Timeout
// ago. Closing the socket also unblocks a flusher stuck in writev
// against a peer that stopped reading.
func (u *upstream[E]) checkAge() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for seq := range u.pending {
		if seq <= u.marks[0] {
			u.failLocked(fmt.Errorf("no response within %v", u.timeout))
			return
		}
	}
	if u.err == nil {
		copy(u.marks[:], u.marks[1:])
		u.marks[len(u.marks)-1] = u.seq
		u.watchdog.Reset(watchEvery(u.timeout))
	}
}

// post has frame append e's request to the write queue under the next
// sequence number and makes e pending. elected tells the poster that
// the queue was empty, so the flush is its to do. An error means
// nothing was queued: frame's own, or a TransportError marked unsent
// when the connection has failed.
func (u *upstream[E]) post(e E, frame func(q *writeQueue, seq uint64) error) (elected bool, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return false, &TransportError{Err: u.err, unsent: true}
	}
	elected = u.wq.queued == 0
	if err := frame(&u.wq, u.seq+1); err != nil {
		return false, err
	}
	u.seq++
	u.pending[u.seq] = e
	return elected, nil
}

// claim takes the entry that the answer at seq is for.
func (u *upstream[E]) claim(seq uint64) (E, error) {
	u.mu.Lock()
	e, ok := u.pending[seq]
	delete(u.pending, seq)
	u.mu.Unlock()
	if !ok {
		return e, fmt.Errorf("response to seq %d, which is not pending", seq)
	}
	return e, nil
}

// kick flushes the write queue for the poster that was elected to; a
// write that fails fails the connection, which orphans every entry
// queued behind it too. While run is still dialing the flush is its
// job and this returns at once.
func (u *upstream[E]) kick() {
	if _, err := u.flush(); err != nil {
		u.fail(err)
	}
}

func (u *upstream[E]) fail(err error) {
	u.mu.Lock()
	u.failLocked(err)
	u.mu.Unlock()
}

// failLocked marks the connection dead, once, and closes its socket,
// which ends run's read; run then orphans what is pending.
func (u *upstream[E]) failLocked(err error) {
	if u.err != nil {
		return
	}
	u.err = err
	u.dead.Store(true)
	u.watchdog.Stop()
	if u.nc != nil {
		u.nc.Close()
	}
}

// run is the connection's goroutine: dial unless handed a socket, send
// what queued up meanwhile, pass answers to answer (idle as in
// readFrames) until the connection fails, then orphan every entry it
// still owes. sent reports whether the connection ever had a socket.
func (u *upstream[E]) run(dial func() (net.Conn, error), idle func(), answer func(payload []byte) error,
	orphan func(e E, sent bool, cause error)) {
	var err error
	if u.nc == nil {
		var nc net.Conn
		if nc, err = dial(); err == nil {
			u.mu.Lock()
			if err = u.err; err != nil { // failed while dialing: closed, or the watchdog
				nc.Close()
			} else {
				u.nc, u.flushing = nc, false
			}
			u.mu.Unlock()
		}
	}
	if err == nil {
		if _, err = u.flush(); err == nil {
			err = readFrames(u.nc, idle, answer)
		}
	}
	u.fail(err)

	// Nothing is posted once err is set, so this is everything the
	// connection still owed.
	u.mu.Lock()
	orphans := make([]E, 0, len(u.pending))
	for seq, e := range u.pending {
		orphans = append(orphans, e)
		delete(u.pending, seq)
	}
	cause, sent := u.err, u.nc != nil
	u.mu.Unlock()
	for _, e := range orphans {
		orphan(e, sent, cause)
	}
}

// readFrames is the read loop of every connection, server side and
// client side: it hands handle each frame's payload until a read or
// handle fails, and returns that error. Every whole frame already
// buffered is handled before idle runs, and idle runs before any read
// that can block — the log-round drain: whatever the handled frames
// queued for writing (and staged for commit) shares one flush, and none
// of it waits on a socket. Half a frame does not count as buffered; the
// rest of it may be a long time coming. The receive buffer is a pooled
// class buffer reused across frames, so handle must be done with the
// payload when it returns.
func readFrames(nc net.Conn, idle func(), handle func(payload []byte) error) error {
	br := bufio.NewReaderSize(nc, readBufSize)
	var buf []byte
	defer func() { putBuf(buf) }()
	for {
		if !frameBuffered(br) {
			idle()
		}
		payload, err := readFrame(br, &buf)
		if err == nil {
			err = handle(payload)
		}
		if err != nil {
			return err
		}
	}
}

// slot is one place in an owner's pool: the connection in it is
// replaced, on next use, once it has failed.
type slot[E any] struct {
	open func() *upstream[E] // starts a connection that dials on its own goroutine

	mu     sync.Mutex // serializes replacing u
	closed bool       // hangUp has run: a failed connection is not replaced
	u      atomic.Pointer[upstream[E]]
}

// live returns the slot's connection, replacing one that has failed.
// The pick takes no lock and never waits on the network: frames queue
// behind a new connection's dial and share its fate. nil means the
// owner has closed.
func (s *slot[E]) live() *upstream[E] {
	if u := s.u.Load(); u != nil && !u.dead.Load() {
		return u
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if u := s.u.Load(); u != nil && !u.dead.Load() {
		return u
	}
	if s.closed {
		return nil
	}
	u := s.open()
	s.u.Store(u)
	return u
}

// hangUp closes the slot for good. closed is set under the lock live
// opens under, so a connection opened before this is failed here —
// closing its socket as soon as its dial returns — and none is after.
func (s *slot[E]) hangUp(cause error) {
	s.mu.Lock()
	s.closed = true
	if u := s.u.Load(); u != nil {
		u.fail(cause)
	}
	s.mu.Unlock()
}
