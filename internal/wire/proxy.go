package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/obs"
	"ftnet/internal/shard"
)

// proxyWindow bounds one front connection's in-flight window: frames
// read from it whose responses have not been written back yet. Past
// the window the reader stops pulling frames, which backpressures the
// client through TCP, and it is what bounds the responses queued on a
// front that reads slowly.
const proxyWindow = 256

// ProxyOptions configures NewProxy.
type ProxyOptions struct {
	// RPCPeers maps member name -> RPC address of each daemon's wire
	// listener; the ring is built over these names.
	RPCPeers map[string]string
	// HTTPPeers maps member name -> advertised HTTP base URL.
	// StatusWrongShard hints carry the owner's HTTP URL (the hint
	// format both planes share), so the router needs this map to
	// translate a hint back into a member.
	HTTPPeers map[string]string
	// Timeout is Options.Timeout for the proxy's backend connections
	// (conn.go), one per member: one that leaves a frame unanswered for
	// Timeout after it was posted there is failed as a whole, between
	// Timeout and 1.25×Timeout after the posting — and every front's
	// frames for that member with it. A read it orphans inside Timeout of
	// its arrival is sent once more, so a frame for a backend that never
	// answers is refused no later than 2.5×Timeout after it came in.
	Timeout time.Duration
	// Metrics, when non-nil, receives the proxy's RPC-plane counters
	// and histograms (pass the HTTP proxy's registry so one /metrics
	// covers both planes). Nil creates a private one.
	Metrics *obs.Registry
}

// Proxy is the RPC-plane routing front door. It speaks the wire
// protocol to clients and forwards frames rather than re-issuing
// calls: a request payload is checked against the whole request
// grammar, given a sequence number of the backend connection's own,
// and otherwise appended verbatim to the write queue of its owner's
// connection; the response comes back through the response grammar,
// gets the front's sequence number restored, and is queued on the
// front it belongs to.
//
// Every front posts to the one connection the proxy keeps to each shard
// member (conn.go; its pending entries are relays): a daemon serves a
// connection from one goroutine, which alone answers more lookups than
// a whole proxy forwards, and a second connection would only split the
// write that can carry all fronts' frames for the member. Every reader —
// one per front, one per backend connection — works in rounds: it
// handles every whole frame already buffered, then wakes the writer of
// each front it was first to queue an answer on and flushes each backend
// connection it queued a frame on (Bruck-style log rounds: everything
// bound for one destination leaves in one write, whoever contributed it).
//
// Responses leave in completion order, not request order. The seq tag
// is the protocol's ordering contract (clients match responses by it),
// so a frame for a slow or dead owner never holds back the answers of
// frames behind it.
//
// Where a frame goes is the shard.Router's decision — the ring, or
// what a StatusWrongShard hint taught it — exactly as on the HTTP 403
// path; the proxy's own rule is only "one bounce, then surface the
// answer".
type Proxy struct {
	router   *shard.Router
	backends map[string]*backend // by member name, fixed at NewProxy
	timeout  time.Duration

	requests      *obs.Counter
	redirects     *obs.Counter
	misroutes     *obs.Counter
	upErrors      *obs.Counter
	connGauge     *obs.Gauge
	hist          *obs.Histogram
	backendFrames *obs.Histogram
	frontFrames   *obs.Histogram

	acc      acceptor
	accepted atomic.Int64 // fronts so far
}

// backend is one shard member and the one connection to it, which every
// front posts to: dialed on first use, replaced when it has failed.
type backend struct {
	name string
	conn slot[*relay]
}

// NewProxy builds an RPC routing proxy over the configured peers.
// Call Serve with a listener to start accepting.
func NewProxy(opts ProxyOptions) *Proxy {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.New()
	}
	p := &Proxy{
		backends: make(map[string]*backend, len(opts.RPCPeers)),
		timeout:  opts.Timeout,
		requests: reg.Counter("ftproxy_rpc_requests_total",
			"RPC frames routed to a shard owner."),
		redirects: reg.Counter("ftproxy_rpc_redirects_total",
			"RPC requests re-routed after a wrong-shard hint."),
		misroutes: reg.Counter("ftproxy_rpc_misroutes_total",
			"RPC requests still bounced after the redirect retry."),
		upErrors: reg.Counter("ftproxy_rpc_upstream_errors_total",
			"Backend transport failures surfaced to RPC clients."),
		connGauge: reg.Gauge("ftproxy_rpc_connections",
			"RPC client connections currently open."),
		hist: reg.Histogram("ftproxy_rpc_request_seconds",
			"End-to-end proxied RPC request latency: frame read from the client to its answer queued for it."),
		backendFrames: reg.Histogram("ftproxy_rpc_backend_flush_frames",
			"Request frames per write to a backend connection (unit: frames — the send-side batching factor)."),
		frontFrames: reg.Histogram("ftproxy_rpc_front_flush_frames",
			"Response frames per write to a client connection (unit: frames)."),
		acc: newAcceptor(),
	}
	urls := make(map[string]string, len(opts.RPCPeers))
	for name, addr := range opts.RPCPeers {
		urls[name] = opts.HTTPPeers[name]
		dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, p.timeout) }
		b := &backend{name: name}
		b.conn.open = func() *upstream[*relay] { return p.connect(dial) }
		p.backends[name] = b
	}
	p.router = shard.NewRouter(urls, 0)
	return p
}

// Serve accepts client connections on ln until Close (or a listener
// error) and serves each on its own goroutine pair. It returns nil
// after Close.
func (p *Proxy) Serve(ln net.Listener) error { return p.acc.serve(ln, p.serveFront) }

// Close stops the listeners and hangs up every client and backend
// connection.
func (p *Proxy) Close() error {
	p.acc.close()
	p.hangUpBackends()
	return nil
}

// Shutdown drains the proxy gracefully, mirroring Server.Shutdown:
// listeners stop accepting and each front connection finishes the
// frames it has already read — forwarded, answered and written back —
// before exiting on its nudged deadline.
func (p *Proxy) Shutdown(ctx context.Context) error {
	err := p.acc.shutdown(ctx)
	p.hangUpBackends()
	return err
}

func (p *Proxy) hangUpBackends() {
	for _, b := range p.backends {
		b.conn.hangUp(errors.New("proxy closed"))
	}
}

// relay is one front frame on its way through the proxy, pooled. It
// keeps what the response needs restored (the front's seq) and the
// request from the id on, so the frame can be sent again after
// a wrong-shard bounce or a dead backend connection.
type relay struct {
	f       *front
	b       *backend // where it was last sent
	start   time.Time
	seq     uint64
	t       MsgType
	bounced bool   // followed a wrong-shard hint already
	resent  bool   // re-sent after a backend connection died already
	req     []byte // the request payload past its seq varint
}

var relayPool = sync.Pool{New: func() any { return new(relay) }}

func putRelay(e *relay) {
	req := e.req[:0]
	if cap(req) > maxPooledBuf {
		req = nil // one giant frame must not pin its size in the pool
	}
	*e = relay{req: req}
	relayPool.Put(e)
}

// id returns the instance id at the head of the kept request.
func (e *relay) id() string {
	d := cursorAt(e.req, 0)
	id, _ := d.bytesVal() // validated when the frame was read
	return string(id)
}

// round is one read pass of one reader goroutine: its one clock read,
// the backend connections it queued a frame on since its last finish,
// and the fronts whose empty write queue it put an answer on, whose
// writer is its to wake. Every round that queued on a backend
// connection flushes it, elected or not (flush returns at once when
// another flusher is at it or nothing is left), so a reader stuck
// writing to one member holds no other front's frames for the members
// after it. Its own frames for those do wait with it, until the stuck
// connection's watchdog cuts the write (≤ 1.25×Timeout).
type round struct {
	open     *obs.Gauge // the fronts now open, in a front reader's round; nil in a backend reader's
	now      time.Time  // the pass's stamp, read at its first use; zero between passes
	backends []*upstream[*relay]
	fronts   []*front
}

// stamp is the pass's one clock read, taken at its first use. A front
// reader's is the arrival of every frame it reads. A backend reader's is
// the "now" every answer it relays, and every frame it orphans, is timed
// against: early by at most the pass so far, so no age is overstated,
// and never before an answer's frame arrived, since a pass handles only
// answers buffered before it began.
func (r *round) stamp() time.Time {
	if r.now.IsZero() {
		r.now = time.Now()
	}
	return r.now
}

// finish sends what the round queued. Every reader calls it before
// anything that can block, so a queued frame never waits on a read. A
// front's reader first yields once, unless its front is the only one
// open: one write pass of a pipelining client makes the readers of all
// its connections runnable together, and what they queue for the same
// members then leaves in the same writes.
func (r *round) finish() {
	for i, f := range r.fronts {
		f.kick()
		r.fronts[i] = nil
	}
	if len(r.backends) > 0 && r.open != nil && r.open.Value() > 1 {
		runtime.Gosched()
	}
	for i, u := range r.backends {
		u.kick()
		r.backends[i] = nil
	}
	r.fronts, r.backends = r.fronts[:0], r.backends[:0]
	r.now = time.Time{}
}

// front is one client connection: a reader (serveFront) that forwards
// request frames, and a writer that sends whatever responses the
// backend readers have queued. The writer is the front's own so that a
// client that reads slowly blocks nobody else's responses; what can
// queue up behind it is bounded by the window.
type front struct {
	sender // responses queue here; only writeLoop flushes
	wake   chan struct{}

	// Guarded by the sender's mutex.
	room     sync.Cond // the reader waits here for the window, and to drain
	inflight int       // frames read whose responses are not written (or given up) yet
	dropped  int       // frames given up without a response since the last write
	hangup   bool      // close the connection after the next write
	stop     bool      // the reader is gone and nothing is in flight
}

// serveFront runs one client connection until it ends, then lets the
// frames already read finish before closing it.
func (p *Proxy) serveFront(nc net.Conn) {
	p.connGauge.Add(1)
	defer p.connGauge.Add(-1)

	f := &front{sender: sender{nc: nc, frames: p.frontFrames}, wake: make(chan struct{}, 1)}
	p.accepted.Add(1)
	f.room.L = &f.mu
	written := make(chan struct{})
	go f.writeLoop(written)

	r := &round{open: p.connGauge}
	readFrames(nc, r.finish, func(payload []byte) error {
		// The whole payload is checked here, before any of it reaches a
		// connection other fronts share. A malformed frame is a broken
		// peer, same as on the server: hang up rather than guess at a
		// sequence number.
		h, err := walkRequest(payload, nil)
		if err != nil {
			return err
		}
		p.requests.Inc()
		f.admit(r)
		e := relayPool.Get().(*relay)
		e.f, e.start, e.seq, e.t = f, r.stamp(), h.seq, h.t
		e.req = append(e.req, payload[h.rest:]...)
		p.send(e, p.backends[p.router.OwnerBytes(h.id)], r) // nil on an empty ring
		return nil
	})
	r.finish()

	f.mu.Lock()
	for f.inflight > 0 {
		f.room.Wait()
	}
	f.stop = true
	f.mu.Unlock()
	f.kick()
	<-written
}

// admit takes one slot of the front's window, waiting for the writer
// to free one when it is full.
func (f *front) admit(r *round) {
	f.mu.Lock()
	if f.inflight >= proxyWindow {
		f.mu.Unlock()
		r.finish() // what this round queued must leave, or the window never drains
		f.mu.Lock()
		for f.inflight >= proxyWindow {
			f.room.Wait()
		}
	}
	f.inflight++
	f.mu.Unlock()
}

// kick wakes the writer; one pending wake-up is enough.
func (f *front) kick() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// writeLoop sends queued responses, one writev per wake-up, and
// returns their window slots. It owns closing the connection.
func (f *front) writeLoop(done chan<- struct{}) {
	defer close(done)
	defer f.nc.Close()
	for range f.wake {
		// More answers are on their way than are queued here, and the
		// readers bringing them may be runnable already: let them add to
		// this write first (the client's yield-before-flush, mirrored).
		// When everything in flight is queued there is nobody to wait for.
		f.mu.Lock()
		more := f.inflight > f.wq.frames+f.dropped
		f.mu.Unlock()
		if more {
			runtime.Gosched()
		}
		n, err := f.flush()
		f.mu.Lock()
		n += f.dropped
		f.dropped = 0
		f.inflight -= n
		hangup, stop := f.hangup || err != nil, f.stop
		f.mu.Unlock()
		if n > 0 {
			f.room.Signal()
		}
		if hangup {
			// The reader's next read fails; later flushes fail fast and
			// keep returning slots until nothing is in flight.
			f.nc.Close()
		}
		if stop {
			return
		}
	}
}

// answer queues e's response: the front's own seq, then rest — the
// payload from the status byte on — verbatim.
func (f *front) answer(e *relay, rest []byte, r *round) {
	f.mu.Lock()
	elected := f.wq.queued == 0
	f.wq.relay(e.t, e.seq, rest)
	f.mu.Unlock()
	if elected {
		r.fronts = append(r.fronts, f)
	}
}

// abandon gives up one frame without a response and has the writer
// hang up once what is already answered is on the wire.
func (f *front) abandon(r *round) {
	f.mu.Lock()
	f.dropped++
	f.hangup = true
	f.mu.Unlock()
	r.fronts = append(r.fronts, f) // no frame was queued, so no other round wakes the writer for this
}

// send posts e on the connection to b, a fresh one if the last has
// failed, and has r flush it: the frame leaves when r finishes, or
// sooner in the write of another round that queued there.
func (p *Proxy) send(e *relay, b *backend, r *round) {
	if b == nil {
		p.giveUp(e, false, errors.New("no shard member owns the instance"), r)
		return
	}
	e.b = b
	for try := 0; try < 2; try++ {
		u := b.conn.live()
		if u == nil {
			break // the proxy is closing
		}
		_, err := u.post(e, func(q *writeQueue, seq uint64) error {
			q.relay(e.t, seq, e.req)
			return nil
		})
		if err == nil {
			if !slices.Contains(r.backends, u) {
				r.backends = append(r.backends, u)
			}
			return
		}
	}
	p.giveUp(e, false, errors.New("no connection"), r)
}

// connect starts a backend connection: it dials on its own goroutine
// while frames queue behind it, and that goroutine is then the reader
// whose rounds relay the answers.
func (p *Proxy) connect(dial func() (net.Conn, error)) *upstream[*relay] {
	u := newUpstream[*relay](nil, p.timeout, p.backendFrames)
	go func() {
		r := new(round)
		u.run(dial, r.finish,
			func(payload []byte) error { return p.answered(u, payload, r) },
			func(e *relay, sent bool, cause error) { p.orphaned(e, sent, cause, r) })
		r.finish()
	}()
	return u
}

// answered relays one backend response to the front that asked.
func (p *Proxy) answered(u *upstream[*relay], payload []byte, r *round) error {
	// Checked against the whole response grammar before any of it is
	// relayed: a front never receives what a client would reject.
	h, err := walkResponse(payload, nil)
	if err != nil {
		return err
	}
	e, err := u.claim(h.seq)
	switch {
	case err != nil:
	case e.t != h.t:
		err = fmt.Errorf("response type %v to a %v request", h.t, e.t)
		u.fail(err) // first: e is then re-routed to a fresh connection, like everything this one owes
		p.orphaned(e, true, err, r)
	case h.status == StatusWrongShard:
		p.misrouted(e, payload, h.rest, r)
	default:
		p.deliver(e, payload[h.rest:], r)
	}
	return err
}

// orphaned deals with a frame its backend connection failed under. An
// idempotent read goes out once more on a fresh connection while its
// time is not up; an ApplyBatch may have been applied and is never sent
// twice.
func (p *Proxy) orphaned(e *relay, sent bool, cause error, r *round) {
	if e.t != MsgApplyBatch && !e.resent && r.stamp().Sub(e.start) < p.timeout {
		e.resent = true
		p.send(e, e.b, r)
	} else {
		p.giveUp(e, sent, cause, r)
	}
}

// deliver relays a backend's response to the front that asked.
func (p *Proxy) deliver(e *relay, rest []byte, r *round) {
	p.hist.Observe(r.stamp().Sub(e.start))
	e.f.answer(e, rest, r)
	putRelay(e)
}

// reject answers e with a status of the proxy's own making.
func (p *Proxy) reject(e *relay, st Status, msg string, r *round) {
	// Encoded at seq 0 the head is exactly three bytes; answer puts the
	// front's own seq in its place.
	payload, err := AppendResponse(nil, Response{Type: e.t, Status: st, Msg: msg})
	if err != nil {
		panic("wire: proxy built an unencodable rejection: " + err.Error())
	}
	p.deliver(e, payload[3:], r)
}

// giveUp ends a frame whose backend could not be reached or died under
// it; sent says whether the frame can have been written to a backend
// (one still in the write queue of a connection that had a socket
// counts). It is answered StatusUnavailable — the "retry me" category
// the HTTP plane's 502/503 occupies — except an ApplyBatch that may
// have left: it may have committed just before the connection died, so
// no retryable status is honest, and its front is hung up, which is the
// transport failure wire.Client already refuses to retry.
func (p *Proxy) giveUp(e *relay, sent bool, cause error, r *round) {
	p.upErrors.Inc()
	if e.t == MsgApplyBatch && sent {
		p.hist.Observe(r.stamp().Sub(e.start))
		e.f.abandon(r)
		putRelay(e)
		return
	}
	name := "?"
	if e.b != nil {
		name = e.b.name
	}
	p.reject(e, StatusUnavailable, "ftproxy: upstream "+name+": "+cause.Error(), r)
}

// misrouted handles a StatusWrongShard answer: go where the router
// says the hint leads, once; a second bounce, or a hint the router does
// not follow, is passed on as it came.
func (p *Proxy) misrouted(e *relay, payload []byte, rest int, r *round) {
	if !e.bounced {
		resp, _ := DecodeResponse(payload) // the caller walked it already
		if member, ok := p.router.Learn(e.id(), resp.Owner, e.b.name); ok {
			p.redirects.Inc()
			e.bounced = true
			p.send(e, p.backends[member], r)
			return
		}
	}
	p.misroutes.Inc()
	p.deliver(e, payload[rest:], r)
}
