package wire

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/obs"
	sharding "ftnet/internal/shard"
)

// benchServer boots a daemon holding one de Bruijn instance "bench" of
// 2^h nodes and returns its RPC address and metrics.
func benchServer(b *testing.B, h int) (string, *obs.Registry) {
	b.Helper()
	n := fleettest.Start(b, fleet.DaemonConfig{}, wirePlane)
	if _, err := n.Manager().Create("bench", fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: h, K: 4}); err != nil {
		b.Fatal(err)
	}
	return n.RPCAddr, n.Manager().Metrics()
}

// BenchmarkWireLookup measures a single pipelined Lookup round trip
// over real loopback TCP, many goroutines sharing the pooled client —
// the RPC plane's end-to-end per-op figure the README compares against
// the JSON plane.
func BenchmarkWireLookup(b *testing.B) {
	addr, _ := benchServer(b, 6)
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
	addr, _ := benchServer(b, 6)
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
	addr, _ := benchServer(b, 6)
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

// BenchmarkWireCodec is the codec alone: one op is the four walks a
// LookupBatch-16 frame gets on its way through the proxy — the server's
// and the client's, each with a destination, and the proxy's two
// validating walks without one. The targets and answers spread over the
// repository benchmark's 2^12-node instances, so most take two bytes.
func BenchmarkWireCodec(b *testing.B) {
	xs, phis := make([]int, 16), make([]int, 16)
	for i := range xs {
		xs[i], phis[i] = i*263%4096, i*263%4096+i%8
	}
	req, err := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 1 << 20, ID: "inst-17", Xs: xs})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := AppendResponse(nil, Response{Type: MsgLookupBatch, Seq: 1 << 20, Epoch: 300, Phis: phis})
	if err != nil {
		b.Fatal(err)
	}
	into, out := Request{Xs: make([]int, 16)}, Response{Phis: make([]int, 16)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err1 := walkRequest(req, &into)
		_, err2 := walkRequest(req, nil)
		_, err3 := walkResponse(resp, &out)
		_, err4 := walkResponse(resp, nil)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			b.Fatal(err)
		}
	}
}

// proxiedCluster is the repository benchmark's read-proxy stack in this
// process: 256 instances ring-sharded over the daemons, behind a Proxy.
type proxiedCluster struct {
	addr    string // the proxy's listener
	ids     []string
	owner   map[string]*fleet.Manager // by instance id
	daemons []*obs.Registry           // each daemon's metrics
	proxy   *obs.Registry
}

// newProxiedCluster creates the 256 instances on their owners among
// nodes, a fleettest.Cluster, and serves a Proxy in front of them.
func newProxiedCluster(tb testing.TB, nodes map[string]*fleettest.Node) *proxiedCluster {
	tb.Helper()
	pc := &proxiedCluster{owner: map[string]*fleet.Manager{}}
	var names []string
	for name, n := range nodes {
		names = append(names, name)
		pc.daemons = append(pc.daemons, n.Manager().Metrics())
	}
	ring := sharding.New(names, 0)
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("inst-%d", i)
		pc.ids, pc.owner[id] = append(pc.ids, id), nodes[ring.Owner(id)].Manager()
		if _, err := pc.owner[id].Create(id, fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 6, K: 4}); err != nil {
			tb.Fatal(err)
		}
	}
	urls, rpcAddrs := fleettest.Addrs(nodes)
	_, pc.addr, pc.proxy = startTestProxy(tb, rpcAddrs, ProxyOptions{HTTPPeers: urls})
	return pc
}

// writevs is how many writes the daemons and the proxy have made so
// far, the client's own left out.
func (pc *proxiedCluster) writevs() uint64 {
	n := pc.proxy.Histogram("ftproxy_rpc_backend_flush_frames", "").Count() +
		pc.proxy.Histogram("ftproxy_rpc_front_flush_frames", "").Count()
	for _, reg := range pc.daemons {
		n += reg.Counter("ftnet_rpc_flushes_total", "").Value()
	}
	return n
}

// pipelined is the closed loop of the repository benchmark's
// workloads: one client with 2 connections and 16 callers make b.N
// calls between them. Caller w makes its calls with caller(c, w), which
// keeps whatever scratch it needs, passing the number of the call
// overall.
func pipelined(b *testing.B, addr string, caller func(c *Client, w int) func(n int) error) {
	c, err := Dial(addr, Options{Conns: 2})
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
		go func(call func(int) error) {
			defer wg.Done()
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				if err := call(int(n)); err != nil {
					b.Error(err)
					return
				}
			}
		}(caller(c, w))
	}
	wg.Wait()
}

// lookups is pipelined's caller for the read workloads: LookupBatch-16
// frames of targets i*stride%nodes, the n-th (sent by caller w) to
// instance id(n, w).
func lookups(nodes, stride int, id func(n, w int) string) func(*Client, int) func(int) error {
	xs := make([]int, 16)
	for i := range xs {
		xs[i] = i * stride % nodes
	}
	return func(c *Client, w int) func(int) error {
		phis := make([]int, len(xs))
		return func(n int) error {
			_, err := c.LookupBatch(id(n, w), xs, phis)
			return err
		}
	}
}

// BenchmarkWireDirectPipelined is pipelined against one daemon with
// one instance of 2^12 nodes, the read-direct workload of the
// repository benchmark; run it pinned to one core (or -cpu 1) for that
// workload's shape. ns/op is per frame, client and server together.
// writev/frame counts the server's writes: one per client round it
// drains, so it falls as the client's rounds grow.
func BenchmarkWireDirectPipelined(b *testing.B) {
	addr, reg := benchServer(b, 12)
	pipelined(b, addr, lookups(1<<12, 263, func(int, int) string { return "bench" }))
	b.ReportMetric(float64(reg.Counter("ftnet_rpc_flushes_total", "").Value())/float64(b.N), "writev/frame")
}

// BenchmarkWireApplyPipelined is BenchmarkWireDirectPipelined's write
// twin, the write-durable workload of the repository benchmark: one
// daemon journaling on fsync-always, and ApplyBatch-4 frames of
// recurring fault sets — each caller faults a rack of four nodes of its
// own instance of 2^12 nodes, then repairs it, and again. ns/op is per
// frame; syncs/record is the journal fsyncs each record cost, which
// falls as a drain pass's writes share one commit round.
func BenchmarkWireApplyPipelined(b *testing.B) {
	n := fleettest.Start(b, fleet.DaemonConfig{Journal: filepath.Join(b.TempDir(), "bench.wal"), Fsync: "always"}, wirePlane)
	mgr := n.Manager()
	for w := 0; w < 16; w++ {
		if _, err := mgr.Create(fmt.Sprintf("bench-%d", w), fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 12, K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	before := mgr.Stats().Journal
	pipelined(b, n.RPCAddr, func(c *Client, w int) func(int) error {
		id, bursts := fmt.Sprintf("bench-%d", w), [2][]fleet.Event{}
		for i := 0; i < 4; i++ {
			node := 64 + (8+w%8)*250 + i // a rack of the repository benchmark's recurring writers
			bursts[0] = append(bursts[0], fleet.Event{Kind: fleet.EventFault, Node: node})
			bursts[1] = append(bursts[1], fleet.Event{Kind: fleet.EventRepair, Node: node})
		}
		sent := 0
		return func(int) error {
			_, err := c.ApplyBatch(id, bursts[sent%2])
			sent++
			return err
		}
	})
	after := mgr.Stats().Journal
	b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(after.Records-before.Records), "syncs/record")
}

// benchProxied runs the proxied twin of BenchmarkWireDirectPipelined,
// in the shape the repository benchmark's read-proxy workload runs and
// on one processor like it. ns/op is per frame, for the whole process:
// client, proxy and daemons. writev/frame counts the proxy's and the
// daemons' writes, which is where the hop's cost is.
func benchProxied(b *testing.B, names []string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pc := newProxiedCluster(b, fleettest.Cluster(b, wirePlane, names...))
	pipelined(b, pc.addr, lookups(64, 3, func(n, w int) string { return pc.ids[(n*7+w)%len(pc.ids)] }))
	b.ReportMetric(float64(pc.writevs())/float64(b.N), "writev/frame")
}

// BenchmarkWireProxyLookupBatchPipelined is benchProxied over the three
// members the repository benchmark shards over.
func BenchmarkWireProxyLookupBatchPipelined(b *testing.B) {
	benchProxied(b, []string{"a", "b", "c"})
}

// BenchmarkWireProxyMembers prices the hop by member count: a client
// cycle of 16 frames costs one write to each member it touches, one
// from each back, and the fronts' own, so ns/op climbs with writev/frame.
// (members=, not n=: this is no size family for ftbenchjson -check.)
func BenchmarkWireProxyMembers(b *testing.B) {
	for _, members := range []int{1, 2, 3, 5, 8} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			benchProxied(b, strings.Split("abcdefgh"[:members], ""))
		})
	}
}
