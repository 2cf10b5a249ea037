package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
	sharding "ftnet/internal/shard"
)

func benchServer(b *testing.B) (string, func()) {
	b.Helper()
	mgr := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 6, K: 4}
	if _, err := mgr.Create("bench", spec); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(mgr, ServerOptions{Metrics: obs.New()})
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }
}

// BenchmarkWireLookup measures a single pipelined Lookup round trip
// over real loopback TCP, many goroutines sharing the pooled client —
// the RPC plane's end-to-end per-op figure the README compares against
// the JSON plane.
func BenchmarkWireLookup(b *testing.B) {
	addr, stop := benchServer(b)
	defer stop()
	c, err := Dial(addr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var x atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.Lookup("bench", int(x.Add(1)%64)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWireLookupBatchPipelined is BenchmarkWireLookupBatch with a
// deep in-flight window (8 goroutines per proc share the pooled
// connections), so both batching points are exercised: callers that
// find the connection busy yield once before flushing and leave in one
// group writev, and the server coalesces their responses on the way
// back. The single-caller variant is pure round-trip latency and never
// batches. This is the per-core throughput figure.
func BenchmarkWireLookupBatchPipelined(b *testing.B) {
	addr, stop := benchServer(b)
	defer stop()
	c, err := Dial(addr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		xs := make([]int, 16)
		phis := make([]int, 16)
		for i := range xs {
			xs[i] = i * 3 % 64
		}
		for pb.Next() {
			if _, err := c.LookupBatch("bench", xs, phis); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWireLookupBatch measures the vectorized read path: one
// frame each way resolves 16 targets, the shape loadgen's RPC driver
// uses.
func BenchmarkWireLookupBatch(b *testing.B) {
	addr, stop := benchServer(b)
	defer stop()
	c, err := Dial(addr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		xs := make([]int, 16)
		phis := make([]int, 16)
		for i := range xs {
			xs[i] = i * 3 % 64
		}
		for pb.Next() {
			if _, err := c.LookupBatch("bench", xs, phis); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWireProxyLookupBatchPipelined is the proxied twin of the
// pipelined benchmark, in the shape the repository benchmark's
// read-proxy workload runs: 256 instances ring-sharded over three
// daemons behind a Proxy, one client with 2 connections and 8
// closed-loop callers on each, LookupBatch-16 frames. ns/op is per
// frame, for the whole process: client, proxy and daemons.
func BenchmarkWireProxyLookupBatchPipelined(b *testing.B) {
	names := []string{"a", "b", "c"}
	rpcPeers, httpPeers := map[string]string{}, map[string]string{}
	mgrs := map[string]*fleet.Manager{}
	for _, name := range names {
		mgrs[name] = fleet.NewManager(fleet.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(mgrs[name], ServerOptions{Metrics: obs.New()})
		go srv.Serve(ln)
		defer srv.Close()
		rpcPeers[name], httpPeers[name] = ln.Addr().String(), "http://daemon-"+name+".example:8100"
	}
	ring := sharding.New(names, 0)
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("inst-%d", i)
		mgr := mgrs[ring.Owner(ids[i])]
		if _, err := mgr.Create(ids[i], fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 6, K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range names {
		mgrs[name].SetTopology(name, httpPeers, 0)
	}
	px := NewProxy(ProxyOptions{RPCPeers: rpcPeers, HTTPPeers: httpPeers, Metrics: obs.New()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go px.Serve(ln)
	defer px.Close()
	c, err := Dial(ln.Addr().String(), Options{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const callers = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xs := make([]int, 16)
			phis := make([]int, 16)
			for i := range xs {
				xs[i] = i * 3 % 64
			}
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				if _, err := c.LookupBatch(ids[(int(n)*7+w)%len(ids)], xs, phis); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
