package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// probe is what waits on a test's upstream: it counts how often the
// connection handed it back, and how.
type probe struct {
	claimed, orphaned atomic.Int32
	sent              bool // as reported with the orphaning
}

// postProbe posts a Lookup frame for e and flushes if elected, the way
// an owner does.
func postProbe(u *upstream[*probe], e *probe) error {
	elected, err := u.post(e, func(q *writeQueue, seq uint64) error {
		mark := q.mark()
		buf, err := AppendRequest(appendFrameHeader(q.active), Request{Type: MsgLookup, Seq: seq, ID: "prod"})
		if err == nil {
			q.sealFrameAt(buf, mark)
		}
		return err
	})
	if elected {
		u.kick()
	}
	return err
}

// runProbes is an owner's goroutine over u: an answer claims its probe,
// an orphan is marked. The channel closes when run has returned.
func runProbes(u *upstream[*probe], dial func() (net.Conn, error)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		u.run(dial, func() {}, func(payload []byte) error {
			h, err := walkResponse(payload, nil)
			if err != nil {
				return err
			}
			e, err := u.claim(h.seq)
			if err == nil {
				e.claimed.Add(1)
			}
			return err
		}, func(e *probe, sent bool, cause error) {
			e.sent = sent
			e.orphaned.Add(1)
		})
	}()
	return done
}

// TestWireUpstreamHandsBackExactlyOnce pins the connection's one
// promise to its owner: every entry a post accepted comes back — by a
// claim or as an orphan, never both, never neither — and one a post
// refused never does, whatever posts, answers and a failure race.
func TestWireUpstreamHandsBackExactlyOnce(t *testing.T) {
	sl := startScripted(t, answerShifted(0, 1))
	for round := 0; round < 20; round++ {
		nc, err := net.Dial("tcp", sl.addr)
		if err != nil {
			t.Fatal(err)
		}
		u := newUpstream[*probe](nc, 5*time.Second, nil)
		done := runProbes(u, nil)

		const posters, each = 8, 50
		var probes [posters][each]probe
		var accepted [posters][each]bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			u.fail(errors.New("cut by the test"))
		}()
		together(posters, func(i int) {
			for j := range probes[i] {
				accepted[i][j] = postProbe(u, &probes[i][j]) == nil
			}
		})
		wg.Wait()
		<-done

		for i := range probes {
			for j := range probes[i] {
				e := &probes[i][j]
				want := int32(0)
				if accepted[i][j] {
					want = 1
				}
				if back := e.claimed.Load() + e.orphaned.Load(); back != want {
					t.Fatalf("round %d, probe %d/%d: posted %v, claimed %d, orphaned %d",
						round, i, j, accepted[i][j], e.claimed.Load(), e.orphaned.Load())
				}
				if e.orphaned.Load() == 1 && !e.sent {
					t.Fatalf("round %d, probe %d/%d: orphaned as never sent by a connection that had a socket", round, i, j)
				}
			}
		}
	}
}

// TestWireUpstreamOrphansKnowWhetherTheyLeft pins what an orphan is
// told: a connection whose dial was refused never had a socket, so
// nothing posted on it can have left; one that was cut after answering
// had one, and what it still owed may have.
func TestWireUpstreamOrphansKnowWhetherTheyLeft(t *testing.T) {
	var probes [6]probe

	posted := make(chan struct{})
	u := newUpstream[*probe](nil, 5*time.Second, nil)
	done := runProbes(u, func() (net.Conn, error) {
		<-posted
		return nil, errors.New("connection refused")
	})
	for i := range probes[:3] {
		if err := postProbe(u, &probes[i]); err != nil {
			t.Fatalf("post behind the dial: %v", err)
		}
	}
	close(posted)
	<-done
	for i := range probes[:3] {
		if e := &probes[i]; e.claimed.Load() != 0 || e.orphaned.Load() != 1 || e.sent {
			t.Fatalf("probe %d behind a refused dial: claimed %d, orphaned %d, sent %v; want an orphan that never left",
				i, e.claimed.Load(), e.orphaned.Load(), e.sent)
		}
	}
	var te *TransportError
	if err := postProbe(u, &probes[0]); !errors.As(err, &te) || !te.unsent {
		t.Fatalf("post on a failed connection: %v, want a transport error marked unsent", err)
	}

	// The peer answers the first of three requests and hangs up.
	sl := startScripted(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		for i := 0; i < 3; i++ {
			if _, err := readTestFrame(br); err != nil {
				return
			}
		}
		resp, _ := AppendResponse(nil, Response{Type: MsgLookup, Seq: 1})
		writeTestFrame(nc, resp)
	})
	u = newUpstream[*probe](nil, 5*time.Second, nil)
	done = runProbes(u, func() (net.Conn, error) { return net.Dial("tcp", sl.addr) })
	for i := range probes[3:] {
		if err := postProbe(u, &probes[3+i]); err != nil {
			t.Fatalf("post: %v", err)
		}
	}
	<-done
	if e := &probes[3]; e.claimed.Load() != 1 || e.orphaned.Load() != 0 {
		t.Fatalf("the answered probe: claimed %d, orphaned %d; want 1 and 0", e.claimed.Load(), e.orphaned.Load())
	}
	for i := range probes[4:] {
		if e := &probes[4+i]; e.claimed.Load() != 0 || e.orphaned.Load() != 1 || !e.sent {
			t.Fatalf("probe %d on a connection cut after its first answer: claimed %d, orphaned %d, sent %v; want an orphan that may have left",
				4+i, e.claimed.Load(), e.orphaned.Load(), e.sent)
		}
	}
}

// TestWireTimeoutRuleAtTheProxy pins that ProxyOptions.Timeout is the
// rule TestWireTimeoutFailsTheConnection pins for Options.Timeout: a
// backend that accepts and never answers has its connection failed
// between Timeout and 1.25×Timeout after a frame was posted on it, and
// with at most one re-send the frame is refused inside 2.5×Timeout.
func TestWireTimeoutRuleAtTheProxy(t *testing.T) {
	const timeout = 400 * time.Millisecond
	sl := startScripted(t, blackHole)
	_, addr, reg := startTestProxy(t, map[string]string{"a": sl.addr}, ProxyOptions{Timeout: timeout})
	cl := dialTest(t, addr, Options{Conns: 1, Timeout: 10 * timeout})

	start := time.Now()
	_, _, err := cl.Lookup("prod", 0)
	took := time.Since(start)
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusUnavailable || !strings.Contains(we.Msg, "no response within") {
		t.Fatalf("Lookup through a backend that never answers: %v, want StatusUnavailable for a timeout", err)
	}
	if took < timeout || took > timeout*5/2 {
		t.Fatalf("refused after %v, want within [%v, %v]", took, timeout, timeout*5/2)
	}
	if n := reg.Counter("ftproxy_rpc_upstream_errors_total", "").Value(); n != 1 {
		t.Fatalf("upstream errors = %d, want 1", n)
	}
}

// TestWireReadFramesDrainRule pins the one read loop: idle runs before
// every read that can block and never between two frames that arrived
// together, and half a frame does not count as arrived.
func TestWireReadFramesDrainRule(t *testing.T) {
	var wire []byte
	for seq := uint64(1); seq <= 3; seq++ {
		payload, err := AppendRequest(nil, Request{Type: MsgLookup, Seq: seq, ID: "prod"})
		if err != nil {
			t.Fatal(err)
		}
		mark := len(wire)
		wire = append(appendFrameHeader(wire), payload...)
		sealFrame(wire, mark)
	}
	cut := len(wire) - 5 // inside the third frame's payload

	ours, theirs := net.Pipe()
	var log []string
	done := make(chan error, 1)
	go func() {
		done <- readFrames(ours, func() { log = append(log, "idle") }, func(payload []byte) error {
			req, err := DecodeRequest(payload)
			log = append(log, "frame"+string(rune('0'+req.Seq)))
			return err
		})
	}()
	// net.Pipe hands each Write to the reader whole, and returns once it
	// has been read.
	theirs.Write(wire[:cut])
	theirs.Write(wire[cut:])
	theirs.Close()
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Fatalf("readFrames returned %v, want EOF", err)
	}
	if got, want := strings.Join(log, " "), "idle frame1 frame2 idle frame3 idle"; got != want {
		t.Fatalf("readFrames ran %q, want %q", got, want)
	}
}

// TestWireProxyElectedReaderStrandsNoFrame is the proxy's twin of
// TestWireElectedFlusherStrandsNoFrame: a backend connection is flushed
// by every reader that queued a frame on it, when that reader's round
// finishes, and only one flushes at a time, so a frame another front's
// reader queues while a writev is in flight (the slowed Write widens
// that window) must leave in that flusher's next turn or in its own
// reader's flush. A stranded frame would sit until the watchdog; every
// round trip must finish in an eighth of that.
func TestWireProxyElectedReaderStrandsNoFrame(t *testing.T) {
	const timeout = 20 * time.Second
	backends := make(map[string]string)
	for _, name := range []string{"a", "b", "c"} {
		backends[name] = startFakeBackend(t, okReply).addr()
	}
	px, addr, _ := startTestProxy(t, backends, ProxyOptions{Timeout: timeout})
	for name, b := range px.backends {
		dial := func() (net.Conn, error) {
			nc, err := net.Dial("tcp", backends[name])
			return &testConn{Conn: nc, delay: 200 * time.Microsecond}, err
		}
		b.conn.mu.Lock()
		b.conn.open = func() *upstream[*relay] { return px.connect(dial) }
		b.conn.mu.Unlock()
	}
	fronts := [2]*Client{
		dialTest(t, addr, Options{Conns: 1, Timeout: timeout}),
		dialTest(t, addr, Options{Conns: 1, Timeout: timeout}),
	}

	stop := time.Now().Add(2 * time.Second)
	together(16*len(fronts), func(i int) {
		id := "inst-" + string(rune('0'+i%10)) // spread over the ring's three members
		for time.Now().Before(stop) {
			start := time.Now()
			phi, _, err := fronts[i%len(fronts)].Lookup(id, i)
			if took := time.Since(start); err != nil || phi != i+1 || took > timeout/8 {
				t.Errorf("caller %d: round trip took %v, answered %d, err %v; want %d in under %v", i, took, phi, err, i+1, timeout/8)
				return
			}
		}
	})
}
