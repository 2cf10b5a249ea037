package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/obs"
	sharding "ftnet/internal/shard"
)

// wirePlane is a daemon's RPC plane as ftnetd serves it.
func wirePlane(m *fleet.Manager) fleettest.Server {
	return NewServer(m, ServerOptions{Metrics: m.Metrics()})
}

// TestWireProxyRoutesAndMerges pins the RPC front door's routing
// contract when rings agree: every frame lands on the ring owner, the
// answers match a direct lookup bit for bit, mutations apply on the
// owner only, and a pipelined burst across both owners merges back
// with every caller seeing its own answer.
func TestWireProxyRoutesAndMerges(t *testing.T) {
	nodes := fleettest.Cluster(t, wirePlane, "a", "b")
	urls, rpcAddrs := fleettest.Addrs(nodes)
	_, addr, _ := startTestProxy(t, rpcAddrs, ProxyOptions{HTTPPeers: urls})
	cl := dialTest(t, addr, Options{})
	byMember := map[string]*fleet.Manager{"a": nodes["a"].Manager(), "b": nodes["b"].Manager()}
	ring := sharding.New([]string{"a", "b"}, 0)
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}

	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("inst-%d", i)
		if _, err := byMember[ring.Owner(ids[i])].Create(ids[i], spec); err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range ids {
		phi, epoch, err := cl.Lookup(id, 3)
		if err != nil {
			t.Fatalf("Lookup(%s) via proxy: %v", id, err)
		}
		want, err := byMember[ring.Owner(id)].Lookup(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		if phi != want || epoch != 0 {
			t.Fatalf("Lookup(%s) = (%d, %d), want (%d, 0)", id, phi, epoch, want)
		}
	}

	// A batch resolves against one snapshot of its one owner.
	xs := []int{0, 1, 2, 3}
	phis := make([]int, len(xs))
	if _, err := cl.LookupBatch(ids[0], xs, phis); err != nil {
		t.Fatalf("LookupBatch via proxy: %v", err)
	}
	for i, x := range xs {
		want, _ := byMember[ring.Owner(ids[0])].Lookup(ids[0], x)
		if phis[i] != want {
			t.Fatalf("batch phi[%d] = %d, want %d", i, phis[i], want)
		}
	}

	// A mutation applies on the owner and bumps the epoch everywhere
	// the proxy answers from.
	res, err := cl.ApplyBatch(ids[0], []fleet.Event{{Kind: fleet.EventFault, Node: 1}})
	if err != nil {
		t.Fatalf("ApplyBatch via proxy: %v", err)
	}
	if res.Epoch != 1 || res.Applied != 1 {
		t.Fatalf("ApplyBatch result = %+v, want epoch 1, applied 1", res)
	}
	if _, _, err := byMember[ring.Owner(ids[0])].LookupEpochBytes([]byte(ids[0]), 0); err != nil {
		t.Fatal(err)
	}

	// An unknown instance's rejection crosses both hops intact.
	if _, _, err := cl.Lookup("no-such-instance", 0); !errors.Is(err, fleet.ErrNotFound) {
		t.Fatalf("unknown id via proxy = %v, want ErrNotFound", err)
	}

	// A pipelined burst across both owners: every caller gets its own
	// instance's answer back, regardless of fan-out interleaving.
	var wg sync.WaitGroup
	errc := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			want, _ := byMember[ring.Owner(id)].Lookup(id, 5)
			for i := 0; i < 50; i++ {
				phi, _, err := cl.Lookup(id, 5)
				if err != nil {
					errc <- fmt.Errorf("pipelined Lookup(%s): %v", id, err)
					return
				}
				if phi != want {
					errc <- fmt.Errorf("pipelined Lookup(%s) = %d, want %d", id, phi, want)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestWireProxyLearnsFromRedirect drives the wrong-shard learn-retry
// path with a real daemon-generated hint: the daemons shard with a
// different vnode count than the proxy, so for some id the proxy's
// ring answer is wrong. The first frame bounces (StatusWrongShard +
// owner URL), the proxy re-teaches its override cache and retries at
// the hinted owner, and the client sees only the success; repeat
// frames use the override and never bounce again — exactly the HTTP
// 403 path's contract, restated in binary.
func TestWireProxyLearnsFromRedirect(t *testing.T) {
	nodes := fleettest.Cluster(t, wirePlane, "a", "b")
	urls, rpcAddrs := fleettest.Addrs(nodes)
	for name, n := range nodes {
		n.Manager().SetTopology(name, urls, 64) // the proxy keeps the default
	}
	_, addr, reg := startTestProxy(t, rpcAddrs, ProxyOptions{HTTPPeers: urls})
	cl := dialTest(t, addr, Options{})
	byMember := map[string]*fleet.Manager{"a": nodes["a"].Manager(), "b": nodes["b"].Manager()}
	proxyRing := sharding.New([]string{"a", "b"}, 0)
	daemonRing := sharding.New([]string{"a", "b"}, 64)

	moved := ""
	for i := 0; i < 4096 && moved == ""; i++ {
		if id := fmt.Sprintf("inst-%d", i); proxyRing.Owner(id) != daemonRing.Owner(id) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("no id where the rings disagree")
	}
	owner := daemonRing.Owner(moved)
	if _, err := byMember[owner].Create(moved, fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}

	redirects := reg.Counter("ftproxy_rpc_redirects_total", "")
	misroutes := reg.Counter("ftproxy_rpc_misroutes_total", "")

	want, _ := byMember[owner].Lookup(moved, 2)
	phi, _, err := cl.Lookup(moved, 2)
	if err != nil {
		t.Fatalf("Lookup through a bounce: %v", err)
	}
	if phi != want {
		t.Fatalf("Lookup through a bounce = %d, want %d", phi, want)
	}
	if got := redirects.Value(); got != 1 {
		t.Fatalf("redirects after first lookup = %d, want 1", got)
	}

	// The override is cached: no further bounces for the same id, on
	// any operation type.
	if _, err := cl.LookupBatch(moved, []int{0, 1}, make([]int, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyBatch(moved, []fleet.Event{{Kind: fleet.EventFault, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := redirects.Value(); got != 1 {
		t.Fatalf("redirects after cached lookups = %d, want 1 (override not used)", got)
	}
	if got := misroutes.Value(); got != 0 {
		t.Fatalf("misroutes = %d, want 0", got)
	}
}

// fakeBackend is a protocol-level stand-in for a daemon's wire
// listener: it decodes every request frame, counts it by type, and
// lets the test script what happens next — answer, stay silent, or
// hang up — so the proxy's failure handling can be driven frame by
// frame. A frame that does not decode is counted in bad and hangs up,
// exactly as Server.serveConn would.
type fakeBackend struct {
	ln     net.Listener
	script atomic.Value // fakeScript

	mu    sync.Mutex
	conns []net.Conn
	seen  map[MsgType]int
	bad   int
}

type fakeAct int

const (
	fakeReply fakeAct = iota
	fakeStall
	fakeHangup
)

type fakeScript func(req Request) (Response, fakeAct)

// okReply is the canned success: phi = x+1 at epoch 7, or one applied
// transition per event.
func okReply(req Request) (Response, fakeAct) {
	resp := Response{Epoch: 7}
	switch req.Type {
	case MsgLookup:
		resp.Phi = req.X + 1
	case MsgLookupBatch:
		resp.Phis = make([]int, len(req.Xs))
		for i, x := range req.Xs {
			resp.Phis[i] = x + 1
		}
	case MsgApplyBatch:
		resp.Result = fleet.EventResult{Epoch: 1, Applied: len(req.Events)}
	}
	return resp, fakeReply
}

// wrongShard answers every frame with a hint at owner.
func wrongShard(owner string) fakeScript {
	return func(Request) (Response, fakeAct) {
		return Response{Status: StatusWrongShard, Msg: "owned elsewhere", Owner: owner}, fakeReply
	}
}

func startFakeBackend(t *testing.T, script fakeScript) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{ln: ln, seen: make(map[MsgType]int)}
	fb.script.Store(script)
	var serving sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		fb.mu.Lock()
		for _, nc := range fb.conns {
			nc.Close()
		}
		fb.mu.Unlock()
		serving.Wait()
	})
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.conns = append(fb.conns, nc)
			fb.mu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				fb.serve(nc)
			}()
		}
	}()
	return fb
}

func (fb *fakeBackend) addr() string { return fb.ln.Addr().String() }

func (fb *fakeBackend) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	for {
		payload, err := readTestFrame(br)
		if err != nil {
			return
		}
		req, err := DecodeRequest(payload)
		fb.mu.Lock()
		if err != nil {
			fb.bad++
		} else {
			fb.seen[req.Type]++
		}
		fb.mu.Unlock()
		if err != nil {
			return
		}
		resp, act := fb.script.Load().(fakeScript)(req)
		switch act {
		case fakeHangup:
			return
		case fakeStall:
			continue
		}
		resp.Type, resp.Seq = req.Type, req.Seq
		out, err := AppendResponse(nil, resp)
		if err != nil {
			panic(err) // a test scripted an unencodable response
		}
		if err := writeTestFrame(nc, out); err != nil {
			return
		}
	}
}

// accepted is how many connections the backend has taken so far.
func (fb *fakeBackend) accepted() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return len(fb.conns)
}

func (fb *fakeBackend) count(t MsgType) int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.seen[t]
}

func (fb *fakeBackend) malformed() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.bad
}

func writeTestFrame(nc net.Conn, payload []byte) error {
	frame := append(appendFrameHeader(nil), payload...)
	sealFrame(frame, 0)
	_, err := nc.Write(frame)
	return err
}

func readTestFrame(br *bufio.Reader) ([]byte, error) {
	var buf []byte
	return readFrame(br, &buf)
}

// rawFront is a hand-driven client connection: the test decides what
// bytes go out and sees responses in the order they arrive.
type rawFront struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawFront {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawFront{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *rawFront) send(req Request) {
	r.t.Helper()
	payload, err := AppendRequest(nil, req)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := writeTestFrame(r.nc, payload); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads the next response, or fails the test after wait.
func (r *rawFront) recv(wait time.Duration) Response {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(wait))
	payload, err := readTestFrame(r.br)
	if err != nil {
		r.t.Fatalf("reading a response: %v", err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		r.t.Fatalf("decoding a response: %v", err)
	}
	return resp
}

// testPeerURL is the advertised HTTP URL the test topologies give a
// member; wrong-shard hints name members by it.
func testPeerURL(name string) string { return "http://daemon-" + name + ".example:8100" }

// startTestProxy runs a proxy over backends (member name -> RPC
// address), advertised at opts.HTTPPeers or else at testPeerURL, and
// returns it with its listen address and registry.
func startTestProxy(tb testing.TB, backends map[string]string, opts ProxyOptions) (*Proxy, string, *obs.Registry) {
	tb.Helper()
	opts.RPCPeers = backends
	if opts.HTTPPeers == nil {
		opts.HTTPPeers = make(map[string]string)
		for name := range backends {
			opts.HTTPPeers[name] = testPeerURL(name)
		}
	}
	opts.Metrics = obs.New()
	px := NewProxy(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { px.Close() })
	go px.Serve(ln)
	return px, ln.Addr().String(), opts.Metrics
}

// idsOwnedBy returns n distinct ids the default two-member ring gives
// to member.
func idsOwnedBy(t *testing.T, members []string, member string, n int) []string {
	t.Helper()
	ring := sharding.New(members, 0)
	ids := make([]string, 0, n)
	for i := 0; len(ids) < n; i++ {
		if i > 64*n+4096 {
			t.Fatalf("found only %d of %d ids owned by %s", len(ids), n, member)
		}
		if id := fmt.Sprintf("inst-%d", i); ring.Owner(id) == member {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestWireProxyResendsReadsOnce pins the read half of the replay
// policy at the proxy: a backend connection that dies under a
// delivered Lookup or LookupBatch costs the client nothing — the frame
// is re-sent once on a fresh connection — and a second death is
// answered StatusUnavailable and counted, never retried again.
func TestWireProxyResendsReadsOnce(t *testing.T) {
	var drop atomic.Int32
	fb := startFakeBackend(t, func(req Request) (Response, fakeAct) {
		if drop.Add(-1) >= 0 {
			return Response{}, fakeHangup
		}
		return okReply(req)
	})
	_, addr, reg := startTestProxy(t, map[string]string{"a": fb.addr()}, ProxyOptions{Timeout: 2 * time.Second})
	cl := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})
	upErrors := reg.Counter("ftproxy_rpc_upstream_errors_total", "")

	drop.Store(1)
	phi, epoch, err := cl.Lookup("prod", 4)
	if err != nil || phi != 5 || epoch != 7 {
		t.Fatalf("Lookup across one backend death = (%d, %d, %v), want (5, 7, nil)", phi, epoch, err)
	}
	if n := fb.count(MsgLookup); n != 2 {
		t.Fatalf("backend saw the Lookup %d times, want 2 (one re-send)", n)
	}

	drop.Store(1)
	phis := make([]int, 3)
	if _, err := cl.LookupBatch("prod", []int{1, 2, 3}, phis); err != nil || phis[0] != 2 || phis[2] != 4 {
		t.Fatalf("LookupBatch across one backend death = (%v, %v)", phis, err)
	}
	if n := fb.count(MsgLookupBatch); n != 2 {
		t.Fatalf("backend saw the LookupBatch %d times, want 2 (one re-send)", n)
	}
	if n := upErrors.Value(); n != 0 {
		t.Fatalf("upstream errors after absorbed deaths = %d, want 0", n)
	}

	drop.Store(2)
	_, _, err = cl.Lookup("prod", 4)
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusUnavailable {
		t.Fatalf("Lookup across two backend deaths: %v, want StatusUnavailable", err)
	}
	if n := fb.count(MsgLookup); n != 4 {
		t.Fatalf("backend saw %d Lookup frames, want 4 (the second death is not retried)", n)
	}
	if n := upErrors.Value(); n != 1 {
		t.Fatalf("upstream errors = %d, want 1", n)
	}
}

// TestWireProxyNeverResendsApplyBatch pins the write half: a backend
// connection that dies under an un-acked ApplyBatch leaves the burst's
// fate unknown, so the proxy neither re-sends it nor answers a
// retryable status — it hangs up that front, which is the transport
// failure wire.Client already refuses to retry. A second front
// reading through the same proxy never notices.
func TestWireProxyNeverResendsApplyBatch(t *testing.T) {
	var drop atomic.Int32
	fb := startFakeBackend(t, func(req Request) (Response, fakeAct) {
		if req.Type == MsgApplyBatch && drop.Add(-1) >= 0 {
			return Response{}, fakeHangup
		}
		return okReply(req)
	})
	_, addr, reg := startTestProxy(t, map[string]string{"a": fb.addr()}, ProxyOptions{Timeout: 2 * time.Second})
	writer := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})
	reader := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			if phi, _, err := reader.Lookup("prod", i%8); err != nil || phi != i%8+1 {
				readerDone <- fmt.Errorf("bystander Lookup %d = (%d, %v)", i, phi, err)
				return
			}
		}
	}()

	if _, err := writer.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 1}}); err != nil {
		t.Fatalf("ApplyBatch on a healthy backend: %v", err)
	}
	drop.Store(1)
	_, err := writer.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 2}})
	if !IsTransport(err) {
		t.Fatalf("un-acked ApplyBatch: %v, want a transport error (front hung up)", err)
	}
	time.Sleep(20 * time.Millisecond) // a re-send, if the proxy made one, has arrived by now
	if n := fb.count(MsgApplyBatch); n != 2 {
		t.Fatalf("backend saw %d ApplyBatch frames, want 2 (the un-acked one never re-sent)", n)
	}
	if n := reg.Counter("ftproxy_rpc_upstream_errors_total", "").Value(); n != 1 {
		t.Fatalf("upstream errors = %d, want 1", n)
	}
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

// TestWireProxyHintDiscipline is the end-to-end proof that this front
// routes by shard.Router's policy (router_test.go has the policy
// itself): a hint naming a URL that is not a configured peer is
// neither followed nor cached; learned overrides stay bounded at
// shard.MaxOverrides; and a hint that agrees with the ring again
// clears the exception.
func TestWireProxyHintDiscipline(t *testing.T) {
	members := []string{"a", "b"}
	fa := startFakeBackend(t, wrongShard("http://evil.example:8100"))
	fbk := startFakeBackend(t, okReply)
	px, addr, reg := startTestProxy(t, map[string]string{"a": fa.addr(), "b": fbk.addr()}, ProxyOptions{Timeout: 2 * time.Second})
	cl := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})
	redirects := reg.Counter("ftproxy_rpc_redirects_total", "")
	misroutes := reg.Counter("ftproxy_rpc_misroutes_total", "")
	overrides := px.router.Overrides

	ids := idsOwnedBy(t, members, "a", sharding.MaxOverrides+1)
	_, _, err := cl.Lookup(ids[0], 0)
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusWrongShard || we.Owner != "http://evil.example:8100" {
		t.Fatalf("foreign hint surfaced as %v, want the backend's StatusWrongShard relayed", err)
	}
	if redirects.Value() != 0 || misroutes.Value() != 1 || overrides() != 0 {
		t.Fatalf("foreign hint: redirects %d, misroutes %d, overrides %d; want 0, 1, 0",
			redirects.Value(), misroutes.Value(), overrides())
	}
	if n := fbk.count(MsgLookup); n != 0 {
		t.Fatalf("foreign hint reached member b %d times", n)
	}

	// Member a now redirects everything to b: every id the ring gives a
	// costs one bounce and teaches one override, up to the cap.
	fa.script.Store(wrongShard(testPeerURL("b")))
	for _, id := range ids {
		if phi, _, err := cl.Lookup(id, 2); err != nil || phi != 3 {
			t.Fatalf("Lookup(%s) through a bounce = (%d, %v)", id, phi, err)
		}
	}
	if got := redirects.Value(); got != uint64(len(ids)) {
		t.Fatalf("redirects = %d, want %d", got, len(ids))
	}
	if n := overrides(); n != sharding.MaxOverrides {
		t.Fatalf("%d overrides after %d distinct bounces, want the cap %d", n, len(ids), sharding.MaxOverrides)
	}
	if misroutes.Value() != 1 {
		t.Fatalf("misroutes = %d, want 1", misroutes.Value())
	}

	// The last id is certainly cached. When b sends it back to the ring
	// owner, the exception ends.
	last := ids[len(ids)-1]
	fa.script.Store(fakeScript(okReply))
	fbk.script.Store(wrongShard(testPeerURL("a")))
	if phi, _, err := cl.Lookup(last, 2); err != nil || phi != 3 {
		t.Fatalf("Lookup(%s) bounced back to the ring owner = (%d, %v)", last, phi, err)
	}
	if n := overrides(); n != sharding.MaxOverrides-1 {
		t.Fatalf("%d overrides after a hint that agrees with the ring, want %d (the exception for %s ended)",
			n, sharding.MaxOverrides-1, last)
	}
	if got := px.router.Owner(last); got != "a" {
		t.Fatalf("%s routed to %q after the exception ended, want the ring owner a", last, got)
	}
}

// TestWireProxyMalformedFrontIsolated pins where validation happens: a
// frame with a good CRC and a non-canonical body hangs up the front
// that sent it and is never relayed, so fronts sharing the backend
// connection keep every pipelined frame.
func TestWireProxyMalformedFrontIsolated(t *testing.T) {
	// A trailing byte: CRC fine, body not canonical.
	checkBadFrontIsolated(t, func(payload []byte) []byte { return append(payload, 0) })
}

// TestWireProxyRefusesV1Front: a frame at the retired version 1 is one
// more payload outside the grammar — the front is hung up, nothing is
// relayed, nobody else on the shared backend connection notices.
func TestWireProxyRefusesV1Front(t *testing.T) {
	checkBadFrontIsolated(t, func(payload []byte) []byte { return asVersion(payload, 1) })
}

// checkBadFrontIsolated sends corrupt(a canonical Lookup) from one
// front while eight callers pipeline through another front that shares
// its one backend connection.
func checkBadFrontIsolated(t *testing.T, corrupt func(payload []byte) []byte) {
	fb := startFakeBackend(t, okReply)
	_, addr, _ := startTestProxy(t, map[string]string{"a": fb.addr()}, ProxyOptions{Timeout: 2 * time.Second})
	good := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})
	bad := dialRaw(t, addr)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if phi, _, err := good.Lookup("prod", w); err != nil || phi != w+1 {
					errc <- fmt.Errorf("caller %d Lookup %d = (%d, %v)", w, i, phi, err)
					return
				}
			}
		}(w)
	}

	bad.send(Request{Type: MsgLookup, Seq: 1, ID: "prod", X: 1})
	if resp := bad.recv(5 * time.Second); resp.Status != StatusOK {
		t.Fatalf("well-formed frame before the bad one answered %+v", resp)
	}
	payload, _ := AppendRequest(nil, Request{Type: MsgLookup, Seq: 2, ID: "prod", X: 1})
	if err := writeTestFrame(bad.nc, corrupt(payload)); err != nil {
		t.Fatal(err)
	}
	bad.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readTestFrame(bad.br); !errors.Is(err, io.EOF) {
		t.Fatalf("after a malformed frame the front read %v, want EOF (hung up)", err)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := fb.malformed(); n != 0 {
		t.Fatalf("%d malformed frames reached the backend", n)
	}
	if n := fb.count(MsgLookup); n != 8*200+1 {
		t.Fatalf("the backend saw %d lookups, want the %d well-formed ones", n, 8*200+1)
	}
}

// TestWireProxyCompletionOrder pins the ordering contract and the
// timeout bound together: with one owner stalled, frames for a healthy
// owner sent after it on the same front connection are answered first
// (responses are matched by seq, never by position), and the stalled
// frame still fails as StatusUnavailable in bounded time.
func TestWireProxyCompletionOrder(t *testing.T) {
	const timeout = 300 * time.Millisecond
	members := []string{"a", "b"}
	stalled := startFakeBackend(t, func(Request) (Response, fakeAct) { return Response{}, fakeStall })
	healthy := startFakeBackend(t, okReply)
	_, addr, reg := startTestProxy(t, map[string]string{"a": stalled.addr(), "b": healthy.addr()}, ProxyOptions{Timeout: timeout})
	front := dialRaw(t, addr)
	slow := idsOwnedBy(t, members, "a", 1)[0]
	fast := idsOwnedBy(t, members, "b", 1)[0]

	start := time.Now()
	front.send(Request{Type: MsgLookup, Seq: 1, ID: slow, X: 0})
	for seq := uint64(2); seq <= 5; seq++ {
		front.send(Request{Type: MsgLookup, Seq: seq, ID: fast, X: int(seq)})
	}
	answered := make(map[uint64]bool)
	for i := 0; i < 4; i++ {
		resp := front.recv(10 * timeout)
		if resp.Seq == 1 {
			t.Fatalf("the stalled owner's frame was answered (%v) before %d of the healthy owner's: responses are not in completion order", resp.Status, 4-i)
		}
		if resp.Status != StatusOK || resp.Phi != int(resp.Seq)+1 || answered[resp.Seq] {
			t.Fatalf("healthy owner's frame answered %+v", resp)
		}
		answered[resp.Seq] = true
	}
	if d := time.Since(start); d >= timeout {
		t.Fatalf("healthy owner's frames took %v behind a stalled one, want well under the %v timeout", d, timeout)
	}

	resp := front.recv(10 * timeout)
	if resp.Seq != 1 || resp.Status != StatusUnavailable {
		t.Fatalf("stalled frame answered %+v, want StatusUnavailable on seq 1", resp)
	}
	if d := time.Since(start); d > 3*timeout {
		t.Fatalf("stalled frame failed after %v, want within the timeout bound (%v, retry included)", d, 3*timeout)
	}
	if n := reg.Counter("ftproxy_rpc_upstream_errors_total", "").Value(); n == 0 {
		t.Fatal("a timed-out backend was not counted as an upstream error")
	}
}

// TestWireProxySlowFrontBackpressure pins the window: a front that
// sends without ever reading is stopped by TCP backpressure once its
// window and the socket buffers are full, and while it sits there a
// second front sharing the same backend connection is served at full
// speed — a front's unread responses queue on that front, never in a
// backend reader.
func TestWireProxySlowFrontBackpressure(t *testing.T) {
	fb := startFakeBackend(t, okReply)
	_, addr, _ := startTestProxy(t, map[string]string{"a": fb.addr()}, ProxyOptions{Timeout: 30 * time.Second})
	other := dialTest(t, addr, Options{Conns: 1, Timeout: 10 * time.Second})

	xs := make([]int, 2000) // ~4 KB each way per frame
	for i := range xs {
		xs[i] = 1000 + i
	}
	payload, err := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 1, ID: "prod", Xs: xs})
	if err != nil {
		t.Fatal(err)
	}
	hog := dialRaw(t, addr)
	hog.nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	stuck := make(chan int, 1)
	go func() {
		for sent := 0; ; sent++ {
			hog.nc.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
			if err := writeTestFrame(hog.nc, payload); err != nil {
				stuck <- sent
				return
			}
		}
	}()
	select {
	case sent := <-stuck:
		if sent <= proxyWindow {
			t.Fatalf("the hog was stopped after %d frames, inside its window of %d", sent, proxyWindow)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a front that never reads was never backpressured")
	}

	for i := 0; i < 200; i++ {
		if phi, _, err := other.Lookup("prod", i); err != nil || phi != i+1 {
			t.Fatalf("Lookup %d beside a stuck front = (%d, %v)", i, phi, err)
		}
	}
}

// TestWireProxyShutdownDrains pins graceful shutdown: frames the proxy
// has already read are forwarded, answered and written back before the
// front is closed, and Shutdown returns once they are.
func TestWireProxyShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	fb := startFakeBackend(t, func(req Request) (Response, fakeAct) {
		<-release
		return okReply(req)
	})
	px, addr, reg := startTestProxy(t, map[string]string{"a": fb.addr()}, ProxyOptions{Timeout: 5 * time.Second})
	front := dialRaw(t, addr)
	const frames = 8
	for seq := uint64(1); seq <= frames; seq++ {
		front.send(Request{Type: MsgLookup, Seq: seq, ID: "prod", X: int(seq)})
	}
	requests := reg.Counter("ftproxy_rpc_requests_total", "")
	for deadline := time.Now().Add(5 * time.Second); requests.Value() < frames; {
		if time.Now().After(deadline) {
			t.Fatalf("proxy read %d of %d frames", requests.Value(), frames)
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- px.Shutdown(ctx)
	}()
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	seen := make(map[uint64]bool)
	for i := 0; i < frames; i++ {
		resp := front.recv(5 * time.Second)
		if resp.Status != StatusOK || resp.Phi != int(resp.Seq)+1 || seen[resp.Seq] {
			t.Fatalf("drained frame answered %+v", resp)
		}
		seen[resp.Seq] = true
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	front.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readTestFrame(front.br); !errors.Is(err, io.EOF) {
		t.Fatalf("after Shutdown the front read %v, want EOF", err)
	}
}

// TestWireProxyUnsentApplyBatchIsUnavailable pins the other side of
// TestWireProxyNeverResendsApplyBatch: an ApplyBatch that provably
// never left the proxy — its owner's address refuses connections, so
// the connection it was posted on never had a socket — is refused with
// the retryable status a read gets, and its front stays up.
func TestWireProxyUnsentApplyBatchIsUnavailable(t *testing.T) {
	members := []string{"a", "b"}
	refuses, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refuses.Close()
	live := startFakeBackend(t, okReply)
	px, addr, reg := startTestProxy(t, map[string]string{"a": refuses.Addr().String(), "b": live.addr()}, ProxyOptions{Timeout: 2 * time.Second})
	cl := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * time.Second})

	_, err = cl.ApplyBatch(idsOwnedBy(t, members, "a", 1)[0], oneFault)
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusUnavailable || !errors.Is(err, fleet.ErrUnavailable) {
		t.Fatalf("ApplyBatch owned by a member that refuses connections: %v, want StatusUnavailable", err)
	}
	if n := reg.Counter("ftproxy_rpc_upstream_errors_total", "").Value(); n != 1 {
		t.Fatalf("upstream errors = %d, want 1", n)
	}
	if phi, _, err := cl.Lookup(idsOwnedBy(t, members, "b", 1)[0], 4); err != nil || phi != 5 {
		t.Fatalf("Lookup owned by the live member, after the refusal = (%d, %v), want 5", phi, err)
	}
	if n := px.accepted.Load(); n != 1 {
		t.Fatalf("the proxy accepted %d front connections, want 1: the refused writer's front was hung up", n)
	}
}

// TestWireProxyStuckBackendHoldsNoOtherFront pins what a round flushes:
// every backend connection it queued a frame on. Front A's reader sits
// in a write to member y that never returns (y stopped reading), and the
// frame it queued for healthy x in the same pass is not flushed yet.
// Front B's lookup at x then finds x's queue non-empty, so B's reader is
// not the one elected; were only the elected reader to flush, B's frame
// would wait behind A's until x's watchdog failed a healthy connection.
// B must be answered in an eighth of the timeout, over the one
// connection to x the proxy ever dialed.
func TestWireProxyStuckBackendHoldsNoOtherFront(t *testing.T) {
	const timeout = 2 * time.Second
	members := []string{"x", "y"}
	fx, fy := startFakeBackend(t, okReply), startFakeBackend(t, okReply)
	px, addr, _ := startTestProxy(t, map[string]string{"x": fx.addr(), "y": fy.addr()}, ProxyOptions{Timeout: timeout})
	// Write 1 carries the frame that opened the connection; write 2 is a
	// front reader's flush at the end of its round.
	stuck := &testConn{gate: make(chan struct{}), holdFrom: 2}
	t.Cleanup(func() { close(stuck.gate) })
	y := px.backends["y"]
	y.conn.mu.Lock()
	y.conn.open = func() *upstream[*relay] {
		return px.connect(func() (net.Conn, error) {
			nc, err := net.Dial("tcp", fy.addr())
			stuck.Conn = nc
			return stuck, err
		})
	}
	y.conn.mu.Unlock()
	idX, idY := idsOwnedBy(t, members, "x", 1)[0], idsOwnedBy(t, members, "y", 1)[0]

	// Both connections are dialed, and the frames that opened them sent,
	// before the round that sticks.
	a := dialRaw(t, addr)
	for i, id := range []string{idY, idX} {
		a.send(Request{Type: MsgLookup, Seq: uint64(1 + i), ID: id, X: 1})
		if resp := a.recv(timeout); resp.Status != StatusOK {
			t.Fatalf("front A's first lookup of %s answered %+v", id, resp)
		}
	}
	// One write, so one round: it queues on y, then on x, and flushes in
	// that order.
	var pass []byte
	for i, id := range []string{idY, idX} {
		payload, err := AppendRequest(nil, Request{Type: MsgLookup, Seq: uint64(3 + i), ID: id, X: 1})
		if err != nil {
			t.Fatal(err)
		}
		mark := len(pass)
		pass = append(appendFrameHeader(pass), payload...)
		sealFrame(pass, mark)
	}
	if _, err := a.nc.Write(pass); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return stuck.writes.Load() == 2 }) {
		t.Fatal("front A's reader never reached its write to y")
	}

	b := dialTest(t, addr, Options{Conns: 1, Timeout: 5 * timeout})
	start := time.Now()
	phi, _, err := b.Lookup(idX, 4)
	if took := time.Since(start); err != nil || phi != 5 || took > timeout/8 {
		t.Fatalf("front B's lookup at x, with front A's reader stuck writing to y: took %v, answered %d, err %v; want 5 in under %v",
			took, phi, err, timeout/8)
	}
	if n := fx.accepted(); n != 1 {
		t.Fatalf("x accepted %d connections, want 1: its healthy connection was replaced", n)
	}
}

// TestWireProxyFrontsShareBackRound pins the merge: there is one
// connection from the proxy to each member, however many fronts are
// open, and under a pipelined storm from two fronts a write to a member
// carries the frames of both. Two connections' worth of 8 closed-loop
// callers is a cycle of 16 frames over three members: a proxy that
// flushed per front could not average more than 16/6 frames a write.
func TestWireProxyFrontsShareBackRound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pc := newProxiedCluster(t, fleettest.Cluster(t, wirePlane, "a", "b", "c"))
	xs := make([]int, 16)
	for i := range xs {
		xs[i] = i * 3 % 64
	}
	want := make(map[string][]int, len(pc.ids))
	for _, id := range pc.ids {
		want[id] = make([]int, len(xs))
		if _, err := pc.owner[id].LookupBatchBytes([]byte(id), xs, want[id]); err != nil {
			t.Fatal(err)
		}
	}
	proxyConns := func(when string) {
		t.Helper()
		for i, reg := range pc.daemons {
			if n := reg.Gauge("ftnet_rpc_connections", "").Value(); n != 1 {
				t.Fatalf("%s: daemon %d serves %d connections, want the proxy's one", when, i, n)
			}
		}
	}

	fronts := [2]*Client{dialTest(t, pc.addr, Options{Conns: 1}), dialTest(t, pc.addr, Options{Conns: 1})}
	const frames = 20000
	var next atomic.Int64
	together(8*len(fronts), func(w int) {
		phis := make([]int, len(xs))
		for n := next.Add(1); n <= frames; n = next.Add(1) {
			id := pc.ids[(int(n)*7+w)%len(pc.ids)]
			if _, err := fronts[w%len(fronts)].LookupBatch(id, xs, phis); err != nil || !slices.Equal(phis, want[id]) {
				t.Errorf("caller %d: LookupBatch(%s) through the proxy = (%v, %v), want %v", w, id, phis, err, want[id])
				return
			}
		}
	})
	proxyConns("after a storm from two fronts")
	flushes := pc.proxy.Histogram("ftproxy_rpc_backend_flush_frames", "").Snapshot()
	if mean := float64(flushes.Sum) / float64(flushes.Count); mean < 3.5 {
		t.Fatalf("%d writes to the members carried %.2f frames each, want at least 3.5: the fronts are not sharing their back rounds",
			flushes.Count, mean)
	}

	third := dialTest(t, pc.addr, Options{Conns: 1})
	phis := make([]int, len(xs))
	for _, id := range pc.ids {
		if _, err := third.LookupBatch(id, xs, phis); err != nil || !slices.Equal(phis, want[id]) {
			t.Fatalf("third front: LookupBatch(%s) = (%v, %v), want %v", id, phis, err, want[id])
		}
	}
	proxyConns("after a third front")
}
