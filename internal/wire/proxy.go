package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
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
	// Replicas is the ring's virtual-node count (0 selects the default).
	Replicas int
	// Conns is how many connections the proxy keeps to each backend. A
	// front connection uses one of them per backend, so its frames for
	// one owner ride one connection.
	Conns int
	// Timeout bounds how long a frame may wait for its backend.
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
// front it belongs to. Every reader — one per front, one per
// backend connection — works in rounds: it handles every whole frame
// already buffered, then flushes each connection it queued something
// on exactly once (Bruck-style log rounds: everything bound for one
// destination leaves in one write).
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
	accepted atomic.Int64 // fronts so far; picks each one's lane

	// hungUp is set once the backend connections are being closed for
	// good: a failed one is not replaced after that.
	hungUp atomic.Bool
}

// backend is one shard member: its connections are dialed on first
// use and replaced when they fail.
type backend struct {
	name, addr string
	lanes      []lane
}

// lane is one of a backend's connection slots. A front uses the same
// lane number at every backend.
type lane struct {
	mu sync.Mutex // serializes replacing bc
	bc atomic.Pointer[backendConn]
}

// NewProxy builds an RPC routing proxy over the configured peers.
// Call Serve with a listener to start accepting.
func NewProxy(opts ProxyOptions) *Proxy {
	if opts.Conns <= 0 {
		opts.Conns = DefaultConns
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.New()
	}
	urls := make(map[string]string, len(opts.RPCPeers))
	backends := make(map[string]*backend, len(opts.RPCPeers))
	for name, addr := range opts.RPCPeers {
		urls[name] = opts.HTTPPeers[name]
		backends[name] = &backend{name: name, addr: addr, lanes: make([]lane, opts.Conns)}
	}
	return &Proxy{
		router:   shard.NewRouter(urls, opts.Replicas),
		backends: backends,
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
	p.hungUp.Store(true)
	for _, b := range p.backends {
		for i := range b.lanes {
			l := &b.lanes[i]
			l.mu.Lock()
			if bc := l.bc.Load(); bc != nil {
				bc.fail(errors.New("proxy closed"))
			}
			l.mu.Unlock()
		}
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

// passIDs numbers read passes across all rounds, so a connection can
// tell whether the round appending to it has already listed it.
var passIDs atomic.Uint64

// round is one read pass of one reader goroutine: the connections it
// has queued frames on since its last finish. Each is flushed (a
// backend) or has its writer woken (a front) once per round, however
// many frames the round put there.
type round struct {
	pass     uint64
	backends []*backendConn
	fronts   []*front
}

func newRound() *round { return &round{pass: passIDs.Add(1)} }

// finish sends what the round queued. Every reader calls it before
// anything that can block, so a queued frame never waits on a read.
func (r *round) finish() {
	if len(r.fronts) == 0 && len(r.backends) == 0 {
		return
	}
	for i, f := range r.fronts {
		f.kick()
		r.fronts[i] = nil
	}
	for i, bc := range r.backends {
		bc.kick()
		r.backends[i] = nil
	}
	r.fronts, r.backends = r.fronts[:0], r.backends[:0]
	r.pass = passIDs.Add(1)
}

// front is one client connection: a reader (serveFront) that forwards
// request frames, and a writer that sends whatever responses the
// backend readers have queued. The writer is the front's own so that a
// client that reads slowly blocks nobody else's responses; what can
// queue up behind it is bounded by the window.
type front struct {
	sender     // responses queue here; only writeLoop flushes
	lane   int // which of each backend's connections this front uses
	wake   chan struct{}

	// Guarded by the sender's mutex.
	room     sync.Cond // the reader waits here for the window, and to drain
	inflight int       // frames read whose responses are not written (or given up) yet
	dropped  int       // frames given up without a response since the last write
	hangup   bool      // close the connection after the next write
	stop     bool      // the reader is gone and nothing is in flight
	pass     uint64    // the last round that queued here
}

// serveFront runs one client connection until it ends, then lets the
// frames already read finish before closing it.
func (p *Proxy) serveFront(nc net.Conn) {
	p.connGauge.Add(1)
	defer p.connGauge.Add(-1)

	f := &front{sender: sender{nc: nc, frames: p.frontFrames}, wake: make(chan struct{}, 1)}
	f.lane = int(p.accepted.Add(1) - 1)
	f.room.L = &f.mu
	written := make(chan struct{})
	go f.writeLoop(written)

	r := newRound()
	br := bufio.NewReaderSize(nc, readBufSize)
	var in []byte
	for {
		if !frameBuffered(br) {
			r.finish()
		}
		payload, err := readFrame(br, &in)
		if err != nil {
			break
		}
		// The whole payload is checked here, before any of it reaches a
		// connection other fronts share. A malformed frame is a broken
		// peer, same as on the server: hang up rather than guess at a
		// sequence number.
		h, err := walkRequest(payload, nil)
		if err != nil {
			break
		}
		p.requests.Inc()
		f.admit(r)
		e := relayPool.Get().(*relay)
		e.f, e.start, e.seq, e.t = f, time.Now(), h.seq, h.t
		e.req = append(e.req, payload[h.rest:]...)
		p.send(e, p.backends[p.router.OwnerBytes(h.id)], r) // nil on an empty ring
	}
	putBuf(in)
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

// listed notes, under f.mu, that round r queued something here, and
// adds the front to the round the first time.
func (f *front) listed(r *round) {
	if f.pass != r.pass {
		f.pass = r.pass
		r.fronts = append(r.fronts, f)
	}
}

// answer queues e's response: the front's own seq, then rest — the
// payload from the status byte on — verbatim.
func (f *front) answer(e *relay, rest []byte, r *round) {
	f.mu.Lock()
	f.wq.relay(e.t, e.seq, rest)
	f.listed(r)
	f.mu.Unlock()
}

// abandon gives up one frame without a response and has the writer
// hang up once what is already answered is on the wire.
func (f *front) abandon(r *round) {
	f.mu.Lock()
	f.dropped++
	f.hangup = true
	f.listed(r)
	f.mu.Unlock()
}

// send queues e on its front's lane to b, dialing a fresh connection
// if the lane's last one has failed.
func (p *Proxy) send(e *relay, b *backend, r *round) {
	if b == nil {
		p.giveUp(e, errors.New("no shard member owns the instance"), r)
		return
	}
	e.b = b
	l := &b.lanes[e.f.lane%len(b.lanes)]
	for try := 0; try < 2; try++ {
		bc := p.live(l, b)
		if bc == nil {
			break
		}
		if bc.enqueue(e, r) {
			return
		}
	}
	p.giveUp(e, errors.New("no connection"), r)
}

// live returns the lane's connection, replacing one that has failed.
// It never blocks on the network: a new connection dials on its own
// goroutine while frames queue behind it. nil means the proxy is
// closing.
func (p *Proxy) live(l *lane, b *backend) *backendConn {
	if bc := l.bc.Load(); bc != nil && !bc.dead.Load() {
		return bc
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if bc := l.bc.Load(); bc != nil && !bc.dead.Load() {
		return bc
	}
	if p.hungUp.Load() {
		return nil
	}
	bc := &backendConn{p: p, b: b, pending: make(map[uint64]*relay)}
	bc.frames = p.backendFrames
	bc.flushing = true // run holds the flush token until there is a socket to write to
	bc.mu.Lock()       // checkAge reads the field it is being assigned to
	bc.watchdog = time.AfterFunc(watchEvery(p.timeout), bc.checkAge)
	bc.mu.Unlock()
	l.bc.Store(bc)
	go bc.run()
	return bc
}

// deliver relays a backend's response to the front that asked.
func (p *Proxy) deliver(e *relay, rest []byte, r *round) {
	p.hist.Observe(time.Since(e.start))
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
// it. An idempotent read is answered StatusUnavailable — the "retry
// me" category the HTTP plane's 502/503 occupies. An ApplyBatch may
// have committed just before the connection died, so no retryable
// status is honest: its front is hung up, which is the transport
// failure wire.Client already refuses to retry.
func (p *Proxy) giveUp(e *relay, cause error, r *round) {
	p.upErrors.Inc()
	if e.t != MsgApplyBatch {
		name := "?"
		if e.b != nil {
			name = e.b.name
		}
		p.reject(e, StatusUnavailable, "ftproxy: upstream "+name+": "+cause.Error(), r)
		return
	}
	p.hist.Observe(time.Since(e.start))
	e.f.abandon(r)
	putRelay(e)
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

// backendConn is one connection to a shard member, shared by every
// front on its lane. Fronts' readers append rewritten request frames
// to its sender and flush it once per round; its own goroutine dials,
// then reads responses and relays each to its front. The sender's
// mutex also guards seq, pending and err.
type backendConn struct {
	sender // nc is nil until run has dialed
	p      *Proxy
	b      *backend
	dead   atomic.Bool // err != nil, readable without the lock

	seq      uint64
	pending  map[uint64]*relay
	err      error
	pass     uint64      // the last round that queued here
	watchdog *time.Timer // checkAge, re-armed while the connection lives
}

// enqueue appends e's request under a sequence number of this
// connection and registers it as pending. It reports false when the
// connection has failed; nothing was queued then.
func (bc *backendConn) enqueue(e *relay, r *round) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.err != nil {
		return false
	}
	bc.seq++
	bc.wq.relay(e.t, bc.seq, e.req)
	bc.pending[bc.seq] = e
	if bc.pass != r.pass {
		bc.pass = r.pass
		r.backends = append(r.backends, bc)
	}
	return true
}

// kick flushes what rounds have queued; while the connection is still
// dialing that is run's job and this returns at once.
func (bc *backendConn) kick() {
	if _, err := bc.flush(); err != nil {
		bc.fail(err)
	}
}

// fail marks the connection dead, once, and closes it, which ends
// run's read; run then re-routes what was pending.
func (bc *backendConn) fail(err error) {
	bc.mu.Lock()
	if bc.err == nil {
		bc.err = err
		bc.dead.Store(true)
		bc.watchdog.Stop()
		if bc.nc != nil {
			bc.nc.Close()
		}
	}
	bc.mu.Unlock()
}

// watchEvery is how often a connection's watchdog looks — the proxy's
// for a backend, the client's for its server: often enough that a
// stalled peer is cut off soon after Timeout.
func watchEvery(timeout time.Duration) time.Duration { return max(timeout/4, time.Millisecond) }

// checkAge is the connection's watchdog: a backend that leaves any
// frame unanswered for Timeout is treated as dead. One timer per
// connection stands in for a deadline per call.
func (bc *backendConn) checkAge() {
	bc.mu.Lock()
	stale, now := false, time.Now()
	for _, e := range bc.pending {
		if now.Sub(e.start) >= bc.p.timeout {
			stale = true
			break
		}
	}
	if !stale && bc.err == nil {
		bc.watchdog.Reset(watchEvery(bc.p.timeout))
	}
	bc.mu.Unlock()
	if stale {
		bc.fail(fmt.Errorf("no response within %v", bc.p.timeout))
	}
}

// run is the connection's goroutine: dial, send what queued up
// meanwhile, relay responses until the connection fails, then deal
// with the frames it leaves unanswered.
func (bc *backendConn) run() {
	nc, err := net.DialTimeout("tcp", bc.b.addr, bc.p.timeout)
	bc.mu.Lock()
	if err == nil && bc.err != nil { // failed while dialing: closed, or the watchdog
		nc.Close()
		err = bc.err
	}
	if err == nil {
		bc.nc = nc
		bc.flushing = false
	}
	bc.mu.Unlock()
	if err == nil {
		if _, err = bc.flush(); err == nil {
			err = bc.readLoop()
		}
	}
	bc.fail(err)

	// Nothing can be enqueued once err is set, so this is everything the
	// connection still owed. An idempotent read goes out once more on a
	// fresh connection while its time is not up; an ApplyBatch may have
	// been applied and is never sent twice.
	bc.mu.Lock()
	orphans := make([]*relay, 0, len(bc.pending))
	for seq, e := range bc.pending {
		orphans = append(orphans, e)
		delete(bc.pending, seq)
	}
	err = bc.err
	bc.mu.Unlock()
	r := newRound()
	for _, e := range orphans {
		if e.t != MsgApplyBatch && !e.resent && time.Since(e.start) < bc.p.timeout {
			e.resent = true
			bc.p.send(e, e.b, r)
		} else {
			bc.p.giveUp(e, err, r)
		}
	}
	r.finish()
}

// readLoop relays response frames until the connection fails.
func (bc *backendConn) readLoop() error {
	r := newRound()
	defer r.finish()
	br := bufio.NewReaderSize(bc.nc, readBufSize)
	var in []byte
	defer func() { putBuf(in) }()
	for {
		if !frameBuffered(br) {
			r.finish()
		}
		payload, err := readFrame(br, &in)
		if err != nil {
			return err
		}
		// Checked against the whole response grammar before any of it is
		// relayed: a front never receives what a client would reject.
		h, err := walkResponse(payload, nil)
		if err != nil {
			return err
		}
		bc.mu.Lock()
		e := bc.pending[h.seq]
		if e != nil && e.t == h.t {
			delete(bc.pending, h.seq)
		}
		bc.mu.Unlock()
		switch {
		case e == nil:
			return fmt.Errorf("response to seq %d, which is not pending", h.seq)
		case e.t != h.t:
			return fmt.Errorf("response type %v to a %v request", h.t, e.t) // e stays pending and is re-routed
		case h.status == StatusWrongShard:
			bc.p.misrouted(e, payload, h.rest, r)
		default:
			bc.p.deliver(e, payload[h.rest:], r)
		}
	}
}
