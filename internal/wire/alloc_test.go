package wire

import (
	"net"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
)

// TestWireLookupServerAllocs guards the hot path's allocation budget
// with observability enabled: a steady-state Lookup must cost the
// server zero allocs/op end to end through handle (decode, manager
// lookup, metrics, response encode), and the manager's bytes-keyed
// lookup itself must be allocation-free — the properties the
// throughput claim rests on.
func TestWireLookupServerAllocs(t *testing.T) {
	mgr := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}
	if _, err := mgr.Create("prod", spec); err != nil {
		t.Fatal(err)
	}

	id := []byte("prod")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := mgr.LookupEpochBytes(id, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Manager.LookupEpochBytes: %.1f allocs/op, want 0", allocs)
	}

	xs := []int{0, 1, 2, 3}
	phis := make([]int, len(xs))
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := mgr.LookupBatchBytes(id, xs, phis); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Manager.LookupBatchBytes: %.1f allocs/op, want 0", allocs)
	}

	// The full server handle path, metrics registry attached, over a
	// pre-framed request — exactly what serveConn does per frame minus
	// the socket I/O. One warmup call grows the response buffer and the
	// batch scratch to steady-state capacity; after that the path must
	// be allocation-free.
	srv := NewServer(mgr, ServerOptions{Metrics: obs.New()})
	c := &srvConn{s: srv}
	payload, err := AppendRequest(nil, Request{Type: MsgLookup, Seq: 1, ID: "prod", X: 3})
	if err != nil {
		t.Fatal(err)
	}
	// answered runs one frame through handle and empties the response
	// queue the way a flush would, reporting the bytes it held.
	answered := func(payload []byte) int {
		if !c.handle(payload) {
			t.Fatal("handle rejected a valid request")
		}
		return drainQueue(c)
	}
	if answered(payload) == 0 {
		t.Fatal("handle produced no response")
	}
	allocs = testing.AllocsPerRun(1000, func() { answered(payload) })
	if allocs != 0 {
		t.Errorf("srvConn.handle(Lookup): %.1f allocs/op, want 0", allocs)
	}

	bpayload, err := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 2, ID: "prod", Xs: xs})
	if err != nil {
		t.Fatal(err)
	}
	if answered(bpayload) == 0 {
		t.Fatal("handle produced no response")
	}
	allocs = testing.AllocsPerRun(1000, func() { answered(bpayload) })
	if allocs != 0 {
		t.Errorf("srvConn.handle(LookupBatch): %.1f allocs/op, want 0", allocs)
	}
}

// drainQueue discards c's queued responses as a flush would (chunks
// back to their pools) and returns how many bytes there were.
func drainQueue(c *srvConn) int {
	chunks, bytes, _ := c.wq.take(c.chunks)
	recycle(chunks)
	c.chunks = chunks
	return bytes
}

// TestWireApplyRoundAllocs pins the cost of the commit round on the
// server: staging an ApplyBatch frame, committing the round and
// queueing the deferred acks must allocate nothing beyond what the
// manager's own in-process apply of the same burst does — the Round,
// the staged-answer slice and the publish step are all reused.
func TestWireApplyRoundAllocs(t *testing.T) {
	mgr := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 8, K: 4}
	const instances = 8
	var frames [2][instances][]byte // [fault|repair][instance] ApplyBatch payloads
	var events [2][]fleet.Event
	for phase, kind := range []fleet.EventKind{fleet.EventFault, fleet.EventRepair} {
		events[phase] = []fleet.Event{{Kind: kind, Node: 3}, {Kind: kind, Node: 9}}
	}
	ids := make([][]byte, instances)
	for i := range ids {
		id := string(rune('a' + i))
		ids[i] = []byte(id)
		if _, err := mgr.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		for phase := range frames {
			p, err := AppendRequest(nil, Request{Type: MsgApplyBatch, Seq: uint64(i + 1), ID: id, Events: events[phase]})
			if err != nil {
				t.Fatal(err)
			}
			frames[phase][i] = p
		}
	}

	// The baseline: the same bursts applied in-process, one round each.
	phase := 0
	direct := func() {
		for _, id := range ids {
			if _, err := mgr.EventBatchBytes(id, events[phase]); err != nil {
				t.Fatal(err)
			}
		}
		phase ^= 1
	}
	direct()
	direct() // warm the commit log's buffers
	base := testing.AllocsPerRun(200, direct)

	// One round of eight frames per run through the server's handle.
	srv := NewServer(mgr, ServerOptions{Metrics: obs.New()})
	c := &srvConn{s: srv}
	round := func() {
		for _, p := range frames[phase] {
			if !c.handle(p) {
				t.Fatal("handle rejected a valid ApplyBatch")
			}
		}
		if c.round.Len() != instances || c.wq.queued != 0 {
			t.Fatalf("round holds %d writes with %d bytes answered, want %d and 0", c.round.Len(), c.wq.queued, instances)
		}
		c.commitRound()
		if drainQueue(c) == 0 {
			t.Fatal("the round's commit queued no acks")
		}
		phase ^= 1
	}
	round()
	round()
	if got := testing.AllocsPerRun(200, round); got > base {
		t.Errorf("a round of %d ApplyBatch frames costs %.0f allocs, the same bursts in-process %.0f: the round machinery allocates", instances, got, base)
	}
}

// TestWireClientLookupAllocs is the client-side mirror of the server
// guard: steady-state Lookup and LookupBatch over a live connection
// must be allocation-free. AllocsPerRun counts every goroutine, so
// this pins the whole round trip — the client's encode/flush/wait and
// reader, plus the in-process server's read/handle/flush — at zero,
// which is exactly the end-to-end property the throughput target
// rests on. The warmup loop fills the buffer pools, the call pool
// (with its deadline timer), and the connection's pending map before
// measuring.
func TestWireClientLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel handoffs")
	}
	mgr := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}
	if _, err := mgr.Create("prod", spec); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr, ServerOptions{Metrics: obs.New()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(ln)

	cl, err := Dial(ln.Addr().String(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	xs := []int{0, 1, 2, 3}
	phis := make([]int, len(xs))
	for i := 0; i < 200; i++ {
		if _, _, err := cl.Lookup("prod", 3); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.LookupBatch("prod", xs, phis); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := cl.Lookup("prod", 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Client.Lookup round trip: %.1f allocs/op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := cl.LookupBatch("prod", xs, phis); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Client.LookupBatch round trip: %.1f allocs/op, want 0", allocs)
	}
}

// TestWireProxyForwardAllocs extends the round-trip guard across the
// hop: a steady-state Lookup or LookupBatch through the proxy must be
// allocation-free for the whole process — client, proxy (both readers
// and the front's writer) and daemon. Forwarding what the frame
// already carries, instead of decoding and re-issuing it, is what
// makes that possible; the pooled relay and the pooled buffers are
// what the warm-up fills.
func TestWireProxyForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel handoffs")
	}
	mgr := fleet.NewManager(fleet.Options{})
	if _, err := mgr.Create("prod", fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, mgr, ServerOptions{Metrics: obs.New()})
	_, paddr, _ := startTestProxy(t, map[string]string{"a": addr}, ProxyOptions{})
	cl := dialTest(t, paddr, Options{Conns: 1})

	xs := make([]int, 16)
	phis := make([]int, len(xs))
	for i := 0; i < 200; i++ {
		if _, _, err := cl.Lookup("prod", 3); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.LookupBatch("prod", xs, phis); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := cl.Lookup("prod", 3); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("proxied Lookup round trip: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cl.LookupBatch("prod", xs, phis); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("proxied LookupBatch round trip: %.1f allocs/op, want 0", allocs)
	}
}
