package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
)

// scripted is a listener whose connections are each served by whatever
// handler is installed when they arrive, so a test can swap a peer that
// misbehaves for one that answers, on one address.
type scripted struct {
	addr    string
	handle  atomic.Value // func(net.Conn)
	accepts atomic.Int32
}

func startScripted(t *testing.T, handle func(net.Conn)) *scripted {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &scripted{addr: ln.Addr().String()}
	sl.handle.Store(handle)
	var mu sync.Mutex
	var open []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range open {
			nc.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open = append(open, nc)
			mu.Unlock()
			sl.accepts.Add(1)
			go sl.handle.Load().(func(net.Conn))(nc)
		}
	}()
	return sl
}

// blackHole reads whatever arrives and never answers.
func blackHole(nc net.Conn) { io.Copy(io.Discard, nc) }

// answerShifted answers every request with an OK response of its type
// at seq+shift, after hold requests have arrived.
func answerShifted(shift uint64, hold int) func(net.Conn) {
	return func(nc net.Conn) {
		br := bufio.NewReader(nc)
		var held []Request
		for {
			payload, err := readTestFrame(br)
			if err != nil {
				return
			}
			req, err := DecodeRequest(payload)
			if err != nil {
				return
			}
			if held = append(held, req); len(held) < hold {
				continue
			}
			for _, req := range held {
				resp, err := AppendResponse(nil, Response{Type: req.Type, Seq: req.Seq + shift, Phi: 7})
				if err == nil {
					err = writeTestFrame(nc, resp)
				}
				if err != nil {
					return
				}
			}
			held = held[:0]
		}
	}
}

// testConn is the client's socket with a test in the way of its
// writes: each is counted, held for delay (or, from the holdFrom-th on,
// until gate closes), and the failAt-th fails instead of being sent.
type testConn struct {
	net.Conn
	delay    time.Duration
	gate     chan struct{}
	holdFrom int64
	failAt   int64
	writes   atomic.Int64
}

func (c *testConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.gate != nil && n >= c.holdFrom {
		<-c.gate
	}
	time.Sleep(c.delay)
	if n == c.failAt {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// dialWrapped is Dial with every pooled connection's socket wrapped,
// all dialed eagerly.
func dialWrapped(t *testing.T, addr string, opts Options, wrap func(net.Conn) net.Conn) *Client {
	t.Helper()
	c := newClient(opts, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	t.Cleanup(func() { c.Close() })
	for i := range c.pool {
		nc, err := c.dial()
		if err != nil {
			t.Fatal(err)
		}
		c.pool[i].u.Store(c.connect(wrap(nc)))
	}
	return c
}

var oneFault = []fleet.Event{{Kind: fleet.EventFault, Node: 1}}

// together runs n copies of f at once and returns when all have.
func together(n int, f func(i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			f(i)
		}(i)
	}
	close(start)
	wg.Wait()
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestWireCloseRaceLeavesNoConnection pins Close against calls in
// flight: a call that finds its slot empty while Close runs must not
// dial a connection nobody will ever hang up. Callers hammer a client
// whose second slot is still undialed while it is closed; once every
// caller has returned the server must see every connection gone.
func TestWireCloseRaceLeavesNoConnection(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, srv := startServer(t, mgr, ServerOptions{})
	for i := 0; i < 300; i++ {
		c, err := Dial(addr, Options{Conns: 2, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, _, err := c.Lookup("prod", 0); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(i%8) * 20 * time.Microsecond)
		c.Close()
		wg.Wait()
	}
	if !eventually(func() bool { return srv.connGauge.Value() == 0 }) {
		t.Fatalf("%d connections still open at the server after every client was closed", srv.connGauge.Value())
	}
}

// TestWireUnknownSeqFailsConnection pins that an answer to a sequence
// number nobody is waiting for is corruption: no call ever withdraws,
// so nothing honest sends one. The connection fails as a whole, at
// once, and the next call re-dials.
func TestWireUnknownSeqFailsConnection(t *testing.T) {
	sl := startScripted(t, answerShifted(1000, 3))
	c := dialTest(t, sl.addr, Options{Conns: 1, Timeout: 5 * time.Second})

	start := time.Now()
	together(3, func(i int) {
		_, err := c.ApplyBatch("prod", oneFault)
		if !IsTransport(err) || !strings.Contains(err.Error(), "which is not pending") {
			t.Errorf("call %d answered at a seq nobody sent: %v, want the not-pending transport error", i, err)
		}
	})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the calls waited %v: for the watchdog, not for the bad answer", took)
	}

	sl.handle.Store(answerShifted(0, 1))
	phi, _, err := c.Lookup("prod", 0)
	if err != nil || phi != 7 {
		t.Fatalf("Lookup after the failure = %d, %v; want 7 on a fresh connection", phi, err)
	}
	if n := sl.accepts.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (the failed one and its re-dial)", n)
	}
}

// TestWireTimeoutFailsTheConnection pins what Options.Timeout means: a
// connection that leaves any request unanswered for Timeout is failed
// as a whole — every pending call together, between Timeout and
// 1.25×Timeout after it was sent — and the slot re-dials on next use.
func TestWireTimeoutFailsTheConnection(t *testing.T) {
	const timeout = 400 * time.Millisecond
	mgr := newTestManager(t, "prod", 2)
	srv := NewServer(mgr, ServerOptions{})
	sl := startScripted(t, blackHole)
	c := dialTest(t, sl.addr, Options{Conns: 1, Timeout: timeout})

	var ends [4]time.Time
	start := time.Now()
	together(len(ends), func(i int) {
		if _, err := c.ApplyBatch("prod", oneFault); !IsTransport(err) {
			t.Errorf("call %d to a peer that never answers: %v, want a transport error", i, err)
		}
		ends[i] = time.Now()
	})
	slices.SortFunc(ends[:], time.Time.Compare)
	first, last := ends[0], ends[len(ends)-1]
	if first.Sub(start) < timeout || last.Sub(start) > timeout*3/2 {
		t.Fatalf("calls failed %v to %v after they were sent, want within [%v, %v]",
			first.Sub(start), last.Sub(start), timeout, timeout*3/2)
	}
	if last.Sub(first) > timeout/8 {
		t.Fatalf("calls failed %v apart: one by one, not as one connection", last.Sub(first))
	}
	if n := sl.accepts.Load(); n != 1 {
		t.Fatalf("%d connections accepted, want 1: an un-acked ApplyBatch was re-sent", n)
	}

	sl.handle.Store(srv.serveConn)
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatalf("Lookup once the peer answers: %v", err)
	}
	if n := sl.accepts.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (the timed-out one and its re-dial)", n)
	}

	// The rule is about requests owed an answer: with nothing pending a
	// connection outlives any number of Timeouts.
	time.Sleep(3 * timeout)
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatalf("Lookup after an idle 3×Timeout: %v", err)
	}
	if n, open := sl.accepts.Load(), srv.connGauge.Value(); n != 2 || open != 1 {
		t.Fatalf("after an idle 3×Timeout: %d connections accepted, %d open; want 2 and 1", n, open)
	}
}

// TestWireTimeoutCutsAStuckWrite pins the same rule against a peer that
// stops reading: the flusher is stuck in writev behind a full socket
// buffer, no write deadline is armed, and the watchdog's hang-up is
// what unblocks it.
func TestWireTimeoutCutsAStuckWrite(t *testing.T) {
	const timeout = 800 * time.Millisecond
	sl := startScripted(t, func(nc net.Conn) {
		nc.(*net.TCPConn).SetReadBuffer(4 << 10) // and never read
	})
	c := dialTest(t, sl.addr, Options{Conns: 1, Timeout: timeout})

	// An un-acked ApplyBatch is never re-sent, so each call is one frame
	// on the one connection; 4 × 3 MiB is beyond any loopback buffering.
	id := strings.Repeat("x", 3<<20)
	start := time.Now()
	together(4, func(i int) {
		if _, err := c.ApplyBatch(id, oneFault); !IsTransport(err) {
			t.Errorf("call %d to a peer that stopped reading: %v, want a transport error", i, err)
		}
	})
	if took := time.Since(start); took < timeout || took > timeout*3/2 {
		t.Fatalf("calls to a peer that stopped reading failed after %v, want within [%v, %v]", took, timeout, timeout*3/2)
	}
}

// TestWireElectedFlusherStrandsNoFrame pins the election's liveness:
// only the caller whose frame found the write queue empty flushes, so a
// frame appended while a writev is in flight (the slowed Write widens
// that window) must still leave in that flusher's next turn. A stranded
// frame would sit until the watchdog, a whole Timeout; here every round
// trip must finish in an eighth of that. The bound is longer than the
// storm on purpose: a flusher keeps its role while frames keep arriving
// behind its writes, which a saturating storm over a slow Write can
// make last, and that is its callers' round, not a stranded frame.
func TestWireElectedFlusherStrandsNoFrame(t *testing.T) {
	const timeout = 20 * time.Second
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialWrapped(t, addr, Options{Conns: 2, Timeout: timeout}, func(nc net.Conn) net.Conn {
		return &testConn{Conn: nc, delay: 200 * time.Microsecond}
	})

	stop := time.Now().Add(2 * time.Second)
	together(16, func(i int) {
		for time.Now().Before(stop) {
			start := time.Now()
			_, _, err := c.Lookup("prod", i%4)
			if took := time.Since(start); err != nil || took > timeout/8 {
				t.Errorf("caller %d: round trip took %v, err %v; want under %v", i, took, err, timeout/8)
				return
			}
		}
	})
}

// TestWireElectedFlusherOneWritePerRound pins the election's point:
// callers that are runnable together leave in one write, and a lone
// caller neither waits for anyone nor yields. One P makes the schedule
// the test's own: goroutines run in the order they became runnable.
func TestWireElectedFlusherOneWritePerRound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	var tc *testConn
	c := dialWrapped(t, addr, Options{Conns: 1, Timeout: 5 * time.Second}, func(nc net.Conn) net.Conn {
		tc = &testConn{Conn: nc}
		return tc
	})

	// A goroutine made runnable just before a lone call runs as soon as
	// the caller lets go of the processor. Had the caller yielded before
	// flushing, that would be before its write.
	seen := make(chan int64, 1)
	go func() { seen <- tc.writes.Load() }()
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatal(err)
	}
	if n, total := <-seen, tc.writes.Load(); n != 1 || total != 1 {
		t.Fatalf("a lone caller: %d writes when it first let go of the processor, %d in all; want 1 and 1", n, total)
	}

	// The first of eight finds itself alone and flushes at once; the
	// second is elected, yields, and carries the other six. The
	// scheduler may hand the elected caller the processor back early
	// (it looks at the global queue every so often), so the median of
	// several rounds is what is held to two writes.
	var rounds [9]int
	for r := range rounds {
		before := tc.writes.Load()
		together(8, func(i int) {
			if _, _, err := c.Lookup("prod", i%4); err != nil {
				t.Error(err)
			}
		})
		rounds[r] = int(tc.writes.Load() - before)
	}
	slices.Sort(rounds[:])
	if rounds[len(rounds)/2] > 2 {
		t.Fatalf("8 callers released together left in %v writes a round, want a median of at most 2", rounds)
	}
}

// TestWireClientRoundTakesOneConnection pins that a connection is
// picked per round, not per call: with two connections, callers that
// are runnable together still leave in one write, because only the
// elected flusher moves the client on to the next connection. The
// rounds still rotate, so every connection carries writes, and lone
// callers alternate call by call.
func TestWireClientRoundTakesOneConnection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	var tcs []*testConn
	c := dialWrapped(t, addr, Options{Conns: 2, Timeout: 5 * time.Second}, func(nc net.Conn) net.Conn {
		tc := &testConn{Conn: nc}
		tcs = append(tcs, tc)
		return tc
	})
	writes := func() (per []int64, total int64) {
		for _, tc := range tcs {
			n := tc.writes.Load()
			per, total = append(per, n), total+n
		}
		return per, total
	}

	// As in TestWireElectedFlusherOneWritePerRound: the first of eight
	// flushes alone, the second carries the other six, so the median
	// round is two writes. Were a connection picked per call, the six
	// would split over both connections and leave in two writes.
	var rounds [9]int
	for r := range rounds {
		_, before := writes()
		together(8, func(i int) {
			if _, _, err := c.Lookup("prod", i%4); err != nil {
				t.Error(err)
			}
		})
		_, after := writes()
		rounds[r] = int(after - before)
	}
	slices.Sort(rounds[:])
	if rounds[len(rounds)/2] > 2 {
		t.Fatalf("8 callers released together on 2 connections left in %v writes a round, want a median of at most 2", rounds)
	}
	per, _ := writes()
	for i, n := range per {
		if n == 0 {
			t.Fatalf("writes per connection %v: connection %d carried none, want the rounds to rotate", per, i)
		}
	}

	before, _ := writes()
	for i := 0; i < 4; i++ {
		if _, _, err := c.Lookup("prod", 0); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := writes()
	for i := range after {
		if d := after[i] - before[i]; d != 2 {
			t.Fatalf("4 lone calls: connection %d carried %d writes, want 2 (the calls alternate)", i, d)
		}
	}
}

// TestWireElectedFlusherFailedFlushStrandsNobody pins the election's
// failure path: callers that appended behind a write that then fails
// never flush for themselves, so the flusher's failure must reach them
// — at once, not when the watchdog comes round.
func TestWireElectedFlusherFailedFlushStrandsNobody(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	tc := &testConn{failAt: 1, gate: make(chan struct{})}
	c := dialWrapped(t, addr, Options{Conns: 1, Timeout: time.Minute}, func(nc net.Conn) net.Conn {
		tc.Conn = nc
		return tc
	})
	cc := c.pool[0].u.Load()

	const callers = 8
	done := make(chan error, callers)
	call := func() {
		_, err := c.ApplyBatch("prod", oneFault)
		done <- err
	}
	// The first caller's write is held at the gate; the others then
	// queue their frames behind it.
	go call()
	if !eventually(func() bool { return tc.writes.Load() == 1 }) {
		t.Fatal("the first caller never reached its write")
	}
	for i := 1; i < callers; i++ {
		go call()
	}
	if !eventually(func() bool {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.pending) == callers && cc.wq.frames == callers-1
	}) {
		t.Fatal("the other callers never queued their frames behind the held write")
	}
	close(tc.gate)
	for i := 0; i < callers; i++ {
		select {
		case err := <-done:
			if !IsTransport(err) {
				t.Fatalf("a call behind a failed flush: %v, want a transport error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls still waiting after the flush failed", callers-i, callers)
		}
	}
}

// TestWireDialFailureFailsCallersTogether pins what an unreachable
// server costs: a slot's re-dial runs on the new connection's own
// goroutine with every caller's frame queued behind it, so callers wait
// out one dial together, not one each in turn behind a lock. Nothing
// was sent, so each — ApplyBatch included — goes out once more.
func TestWireDialFailureFailsCallersTogether(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{Conns: 1, Timeout: time.Minute})

	var dials atomic.Int32
	release := make(chan struct{})
	c.dial = func() (net.Conn, error) {
		if dials.Add(1) == 1 {
			<-release
			return nil, errors.New("no route to host")
		}
		return net.Dial("tcp", addr)
	}
	first := c.pool[0].u.Load()
	first.fail(errors.New("cut by the test"))

	const callers = 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		together(callers, func(i int) {
			var err error
			if i%2 == 0 {
				_, _, err = c.Lookup("prod", 0)
			} else {
				_, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: i}, {Kind: fleet.EventRepair, Node: i}})
			}
			if err != nil {
				t.Errorf("caller %d behind a failed dial: %v, want the answer of its one retry", i, err)
			}
		})
	}()
	if !eventually(func() bool {
		u := c.pool[0].u.Load()
		u.mu.Lock()
		defer u.mu.Unlock()
		return u != first && len(u.pending) == callers
	}) {
		t.Fatal("the callers never queued behind the one dial")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials in flight for %d waiting callers, want 1", n, callers)
	}
	released := time.Now()
	close(release)
	<-done
	if took := time.Since(released); took > time.Second {
		t.Fatalf("the last caller returned %v after the dial failed: one by one, not together", took)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials in all, want 2: the one that failed and the one every retry shared", n)
	}
}
