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
	var out []byte
	if out, _ = c.handle(payload, out[:0]); out == nil {
		t.Fatal("handle produced no response")
	}
	allocs = testing.AllocsPerRun(1000, func() {
		o, ok := c.handle(payload, out[:0])
		if !ok {
			t.Fatal("handle rejected a valid lookup")
		}
		out = o
	})
	if allocs != 0 {
		t.Errorf("srvConn.handle(Lookup): %.1f allocs/op, want 0", allocs)
	}

	bpayload, err := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 2, ID: "prod", Xs: xs})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ = c.handle(bpayload, out[:0]); out == nil {
		t.Fatal("handle produced no response")
	}
	allocs = testing.AllocsPerRun(1000, func() {
		o, ok := c.handle(bpayload, out[:0])
		if !ok {
			t.Fatal("handle rejected a valid lookup batch")
		}
		out = o
	})
	if allocs != 0 {
		t.Errorf("srvConn.handle(LookupBatch): %.1f allocs/op, want 0", allocs)
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
