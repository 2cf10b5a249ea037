package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
)

// readBufSize is the per-connection read buffer; it is also the
// natural upper bound on how many queued requests one drain pass can
// see without another syscall.
const readBufSize = 64 << 10

// maxCoalesce caps how many response bytes accumulate before the
// server flushes even though more requests are queued, bounding both
// memory and the latency of the first response in a batch.
const maxCoalesce = 256 << 10

// ServerOptions tunes NewServer.
type ServerOptions struct {
	// Metrics, when non-nil, is the registry the RPC plane's
	// histograms, byte counters and connection gauge land in (pass the
	// manager's so /metrics and /v1/stats cover both planes). Nil
	// creates a private one.
	Metrics *obs.Registry
}

// Server serves the binary RPC plane over a fleet manager. Each
// accepted connection gets one goroutine that reads frames, handles
// them against the manager, and coalesces all responses for the
// requests drained in one read pass into a single write — the
// log-round batching that makes a pipelining client pay ~one syscall
// pair per batch instead of per request. Durability is batched the
// same way: the ApplyBatch frames of one pass are staged in a commit
// round (fleet.Round) and share one journal write and fsync.
//
// A staged write is answered when its round commits, so responses
// leave in completion order — reads and refusals at once, writes at
// the end of their round; the sequence number is what pairs a response
// with its request. The round commits before any read that can block,
// before the connection's loop ends for any reason, when it holds
// fleet.RoundCap writes, and before a Lookup or LookupBatch of an
// instance staged in it — so a client that pipelines a write and then
// a read of the same instance reads its write.
type Server struct {
	mgr *fleet.Manager

	lookupHist  *obs.Histogram
	batchHist   *obs.Histogram
	applyHist   *obs.Histogram
	flushFrames *obs.Histogram
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	requests    *obs.Counter
	flushes     *obs.Counter
	connGauge   *obs.Gauge

	acc acceptor
}

// NewServer builds a server over mgr. Call Serve with a listener to
// start accepting.
func NewServer(mgr *fleet.Manager, opts ServerOptions) *Server {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.New()
	}
	opHist := reg.HistogramVec("ftnet_rpc_op_seconds",
		"RPC-plane latency by operation: a frame's residence in its drain pass, from the pass's first frame handled to its answers queued for the pass's one write (a staged ApplyBatch: to its round's commit).", "op")
	return &Server{
		mgr:        mgr,
		lookupHist: opHist.With("lookup"),
		batchHist:  opHist.With("lookup_batch"),
		applyHist:  opHist.With("apply_batch"),
		bytesIn: reg.Counter("ftnet_rpc_bytes_in_total",
			"Bytes received on the RPC plane, frame headers included."),
		bytesOut: reg.Counter("ftnet_rpc_bytes_out_total",
			"Bytes sent on the RPC plane, frame headers included."),
		requests: reg.Counter("ftnet_rpc_requests_total",
			"RPC requests handled."),
		flushes: reg.Counter("ftnet_rpc_flushes_total",
			"Coalesced response writes (requests/flushes is the achieved batching factor)."),
		// The histogram's unit is frames, not seconds: each coalesced
		// write observes how many response frames it carried, so the
		// distribution of achieved log-round batching is visible, not
		// just its mean.
		flushFrames: reg.Histogram("ftnet_rpc_flush_frames",
			"Response frames per coalesced write (unit: frames — the log-round batching factor distribution)."),
		connGauge: reg.Gauge("ftnet_rpc_connections",
			"RPC connections currently open."),
		acc: newAcceptor(),
	}
}

// Serve accepts connections on ln until Close (or a listener error)
// and serves each on its own goroutine. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error { return s.acc.serve(ln, s.serveConn) }

// Close stops the listeners and hangs up every open connection.
func (s *Server) Close() error {
	s.acc.close()
	return nil
}

// Shutdown drains the server gracefully: listeners stop accepting, and
// every open connection is nudged with an already-expired read deadline
// — the serve loop finishes handling (and flushes responses for) every
// request it has already read, then exits on its next blocking read
// instead of being cut mid-frame. Connections still open when ctx
// expires are closed hard, and the context's error returned.
func (s *Server) Shutdown(ctx context.Context) error { return s.acc.shutdown(ctx) }

// acceptor is the accept-side bookkeeping Server and Proxy share:
// which listeners and connections are open, and how Close and Shutdown
// end them.
type acceptor struct {
	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
}

func newAcceptor() acceptor {
	return acceptor{lns: make(map[net.Listener]struct{}), conns: make(map[net.Conn]struct{})}
}

// serve accepts on ln until close or shutdown (nil) or a listener error,
// running handle for each connection on its own goroutine; the
// connection is tracked until handle returns.
func (a *acceptor) serve(ln net.Listener, handle func(net.Conn)) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return errors.New("wire: Serve after Close")
	}
	a.lns[ln] = struct{}{}
	a.mu.Unlock()
	for {
		nc, err := ln.Accept()
		a.mu.Lock()
		closed := a.closed
		if err != nil {
			delete(a.lns, ln)
		} else if !closed {
			a.conns[nc] = struct{}{}
		}
		a.mu.Unlock()
		switch {
		case err != nil && closed:
			return nil
		case err != nil:
			return err
		case closed:
			nc.Close()
			return nil
		}
		go func() {
			defer a.forget(nc)
			handle(nc)
		}()
	}
}

func (a *acceptor) forget(nc net.Conn) {
	a.mu.Lock()
	delete(a.conns, nc)
	a.mu.Unlock()
}

// stopAccepting closes the listeners and runs each on every open
// connection.
func (a *acceptor) stopAccepting(each func(net.Conn)) {
	a.mu.Lock()
	a.closed = true
	for ln := range a.lns {
		ln.Close()
		delete(a.lns, ln)
	}
	for nc := range a.conns {
		each(nc)
	}
	a.mu.Unlock()
}

func (a *acceptor) close() { a.stopAccepting(func(nc net.Conn) { nc.Close() }) }

// shutdown nudges every connection's read deadline and waits for the
// handlers to return; when ctx expires first it closes what is left.
func (a *acceptor) shutdown(ctx context.Context) error {
	a.stopAccepting(func(nc net.Conn) { nc.SetReadDeadline(time.Now()) })
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		a.mu.Lock()
		n := len(a.conns)
		a.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			a.close()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// srvConn is the per-connection state: the response queue (a sender only this goroutine appends to and
// flushes), the decode scratch (req's slices and phis), the drain pass
// under way, and the open commit round with the responses it owes — all
// reused, so a steady-state Lookup handles with zero allocations and a
// staged ApplyBatch adds none to what the manager's own apply costs.
type srvConn struct {
	s *Server
	sender
	req  Request
	phis []int

	pass drainPass

	round  fleet.Round
	staged []stagedWrite // round's transitions, in stage order
}

// drainPass is the bookkeeping of one drain pass, recorded once, when
// finish ends it: the pass is stamped when its first frame is handled,
// and every frame it answers shares that stamp, so a frame costs no
// clock read, histogram update or counter add of its own.
type drainPass struct {
	start  time.Time // zero between passes
	bytes  uint64    // read, frame headers included
	frames uint64    // requests handled
	// Frames answered in the pass, by op: an ApplyBatch among them was
	// refused at once; a staged one is its round's to record.
	lookups, batches, refusals int
}

// stagedWrite is the answer owed to one ApplyBatch staged in the open
// round: final if the round commits, StatusUnavailable if it fails.
type stagedWrite struct {
	seq uint64
	res fleet.EventResult
}

func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	s.connGauge.Add(1)
	defer s.connGauge.Add(-1)
	c := &srvConn{s: s, sender: sender{nc: nc, frames: s.flushFrames}}
	// readFrames' drain is the log round: a pipelining client's whole
	// in-flight window shares one syscall pair, and its writes one fsync,
	// and before any read that can block the open round is committed and
	// everything answered so far goes out — a committed burst is never
	// left un-acked behind half a frame, and a round never stays open
	// across a socket wait.
	readFrames(nc, func() {
		if !c.finish() {
			nc.Close() // the write failed: so will the read that follows
		}
	}, func(payload []byte) error {
		if !c.handle(payload) {
			// A malformed payload is a broken or hostile peer, not a bad
			// argument: hang up rather than guess at a sequence number to
			// answer on.
			return errors.New("malformed request")
		}
		if c.wq.queued >= maxCoalesce && !c.finish() {
			return errors.New("write failed")
		}
		return nil
	})
	// On the way out too, Shutdown's nudge included.
	c.finish()
}

// finish closes the open commit round, ends the drain pass and
// flushes; false means the write failed and the connection is done.
func (c *srvConn) finish() bool {
	c.commitRound()
	c.endPass()
	return c.flush()
}

// endPass records the pass: every frame it answered with the pass's
// residence — its first frame handled to its answers queued for the one
// write they leave in — and the frames and bytes it read.
func (c *srvConn) endPass() {
	p := &c.pass
	if p.start.IsZero() {
		return
	}
	d := time.Since(p.start)
	c.s.lookupHist.ObserveN(d, p.lookups)
	c.s.batchHist.ObserveN(d, p.batches)
	c.s.applyHist.ObserveN(d, p.refusals)
	c.s.requests.Add(p.frames)
	c.s.bytesIn.Add(p.bytes)
	*p = drainPass{}
}

// commitRound commits the open round and queues the answers it owes:
// one durability wait, then every staged ApplyBatch is acked — or, had
// the wait failed, refused as unavailable, none of them applied. Each
// write is recorded from its pass's stamp to the commit.
func (c *srvConn) commitRound() {
	if len(c.staged) == 0 {
		return
	}
	err := c.s.mgr.CommitRound(&c.round)
	c.s.applyHist.ObserveN(time.Since(c.pass.start), len(c.staged))
	for i := range c.staged {
		st := &c.staged[i]
		c.respond(Response{Type: MsgApplyBatch, Seq: st.seq, Result: st.res}, err)
	}
	c.staged = c.staged[:0]
}

// flush sends the queued responses as one vectored write (writev),
// never re-copied into a contiguous staging buffer. It reports false
// when the write failed and the connection is done.
func (c *srvConn) flush() bool {
	bytes := c.wq.queued
	if bytes == 0 {
		return true
	}
	if _, err := c.sender.flush(); err != nil {
		return false
	}
	c.s.bytesOut.Add(uint64(bytes))
	c.s.flushes.Inc()
	return true
}

// handle decodes one request payload, executes it against the manager,
// and queues the framed response — except for an ApplyBatch that joined
// the open round, which commitRound answers. The pass's first frame
// stamps it. It reports false only for payloads that are not canonical
// requests (the caller hangs up); application failures become non-OK
// responses.
func (c *srvConn) handle(payload []byte) bool {
	if c.pass.start.IsZero() {
		c.pass.start = time.Now()
	}
	c.pass.bytes += frameHeaderSize + uint64(len(payload))
	h, err := walkRequest(payload, &c.req)
	if err != nil {
		return false
	}
	c.pass.frames++
	if h.t != MsgApplyBatch && c.round.Has(h.id) {
		c.commitRound() // read your pipelined write
	}
	resp := Response{Type: h.t, Seq: h.seq}
	switch h.t {
	case MsgLookup:
		c.pass.lookups++
		resp.Phi, resp.Epoch, err = c.s.mgr.LookupEpochBytes(h.id, c.req.X)
	case MsgLookupBatch:
		c.pass.batches++
		c.phis = sized(c.phis, len(c.req.Xs))
		resp.Phis = c.phis
		resp.Epoch, err = c.s.mgr.LookupBatchBytes(h.id, c.req.Xs, c.phis)
	case MsgApplyBatch:
		resp.Result, err = c.s.mgr.StageBatchBytes(&c.round, h.id, c.req.Events)
		if err == fleet.ErrRoundBusy {
			// The instance's writer is taken — by this very round, if the
			// client wrote it twice — or the round is full: close the
			// round, then wait in line like any writer.
			c.commitRound()
			resp.Result, err = c.s.mgr.StageBatchBytes(&c.round, h.id, c.req.Events)
		}
		if err == nil {
			c.staged = append(c.staged, stagedWrite{seq: h.seq, res: resp.Result})
			if c.round.Len() == fleet.RoundCap {
				c.commitRound()
			}
			return true
		}
		c.pass.refusals++
	}
	c.respond(resp, err)
	return true
}

// respond queues one framed response: resp when err is nil, otherwise
// err's status under resp's head. appendOK frames and seals it in the
// queue's active chunk; the queue only needs the accounting and chunk
// rotation.
func (c *srvConn) respond(resp Response, err error) {
	mark := c.wq.mark()
	out := c.wq.active
	if err != nil {
		out = c.appendError(out, resp.Type, resp.Seq, err)
	} else {
		out = c.appendOK(out, resp)
	}
	c.wq.sealAt(out, mark)
}

// appendOK frames an OK response. The encode cannot fail for
// server-produced values (phis and result fields are non-negative by
// construction); a failure would indicate a server bug, answered by
// hanging up via the empty-frame path below.
func (c *srvConn) appendOK(out []byte, resp Response) []byte {
	mark := len(out)
	out = appendFrameHeader(out)
	body, err := AppendResponse(out, resp)
	if err != nil {
		return out[:mark]
	}
	sealFrame(body, mark)
	return body
}

func (c *srvConn) appendError(out []byte, t MsgType, seq uint64, err error) []byte {
	resp := Response{Type: t, Seq: seq, Status: statusOf(err), Msg: err.Error()}
	if resp.Status == StatusWrongShard {
		resp.Owner = fleet.WrongShardOwner(err)
	}
	return c.appendOK(out, resp)
}
