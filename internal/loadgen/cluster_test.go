package loadgen

import (
	"math/rand"
	"testing"
	"time"

	"ftnet/internal/cluster"
	"ftnet/internal/fleet"
	"ftnet/internal/journal"
	sharding "ftnet/internal/shard"
	"ftnet/internal/wire"
)

// threeDaemons boots three in-process daemons (no topology installed —
// RunCluster owns the ring lifecycle, like the real scenario against
// unsharded ftnetd processes), returning their HTTP and RPC addresses.
func threeDaemons(t *testing.T) (httpPeers, rpcPeers map[string]string) {
	t.Helper()
	httpPeers, rpcPeers = make(map[string]string, 3), make(map[string]string, 3)
	for _, name := range []string{"a", "b", "c"} {
		_, httpPeers[name], rpcPeers[name], _ = startDaemon(t, fleet.DaemonConfig{})
	}
	return httpPeers, rpcPeers
}

// threeDaemonsBehindProxy boots three daemons and an ftproxy-equivalent
// RPC front (wire.Proxy over the full membership), returning the
// daemons' HTTP base URLs and the proxy's RPC address.
func threeDaemonsBehindProxy(t *testing.T) (map[string]string, string) {
	t.Helper()
	httpPeers, rpcPeers := threeDaemons(t)
	px := wire.NewProxy(wire.ProxyOptions{RPCPeers: rpcPeers, HTTPPeers: httpPeers})
	pln := listen(t)
	go px.Serve(pln)
	t.Cleanup(func() { px.Close() })
	return httpPeers, pln.Addr().String()
}

// TestRunClusterRebalanceMidStorm is the flagship scale-out e2e: a
// 3-daemon cluster (two in the initial ring, one joining mid-storm)
// under a role-split write storm whose lookups and bursts travel the
// wire protocol through a full-membership RPC proxy. The join displaces
// instances onto the new member while writes are in flight. The
// proxy's ring names the joiner from the start, so pre-join traffic
// converges through the joiner's spectator redirects and post-cutover
// traffic through the sources' hints. Afterwards every instance must
// live on exactly its ring owner, at exactly the acknowledged epoch
// (zero lost / double-applied transitions), with a phi slice
// bit-identical to a client-side recomputation — at zero transport
// errors.
func TestRunClusterRebalanceMidStorm(t *testing.T) {
	runMidStorm(t, Config{})
}

// TestRunClusterRebalanceMidStormRPC restates the mid-storm rebalance
// with the wire client's other shape: single Lookup frames instead of
// vectors, spread over a wider connection pool, so every per-target
// redirect and staged-window retry through the proxy is its own frame.
// The verification contract is the flagship's.
func TestRunClusterRebalanceMidStormRPC(t *testing.T) {
	runMidStorm(t, Config{RPCLookupBatch: 1, RPCConns: 4})
}

// runMidStorm runs the 12-instance join-mid-storm scenario through a
// proxy in front of threeDaemonsBehindProxy with knobs' RPCLookupBatch
// and RPCConns, and holds it to the scale-out contract.
func runMidStorm(t *testing.T, knobs Config) {
	t.Helper()
	peers, proxyAddr := threeDaemonsBehindProxy(t)
	cfg := ClusterConfig{
		Config: Config{
			RPCAddr:        proxyAddr,
			RPCLookupBatch: knobs.RPCLookupBatch,
			RPCConns:       knobs.RPCConns,
			Instances:      12,
			Spec:           fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3},
			Workers:        4,
			Requests:       1200,
			Seed:           1,
			Scenario:       Scenario{Batch: 2},
		},
		Peers:         peers,
		Joiner:        "c",
		JoinAfterFrac: 0.3,
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if res.Storm.Transport != 0 || res.Storm.Errors != 0 {
		t.Fatalf("storm saw %d transport and %d unexpected-status errors through the proxy",
			res.Storm.Transport, res.Storm.Errors)
	}
	if res.Migrated == 0 {
		t.Fatal("no instance was rebalanced onto the joiner")
	}
	if res.Verified != cfg.Instances {
		t.Fatalf("verified %d/%d instances", res.Verified, cfg.Instances)
	}
	if res.Storm.Batches == 0 || res.Storm.Lookups == 0 {
		t.Fatalf("degenerate storm: %d batches, %d lookups", res.Storm.Batches, res.Storm.Lookups)
	}
	if res.PauseMax <= 0 {
		t.Error("no write-fence pause was observed on any daemon")
	}
	if res.PauseMax > 5*time.Second {
		t.Errorf("fence pause %v is implausibly wide", res.PauseMax)
	}

	// The artifact carries the families the CI shard job gates.
	art := ServiceArtifact{Kind: "service", Scenario: "cluster"}
	AppendCluster(&art, res)
	families := make(map[string]bool)
	for _, b := range art.Benchmarks {
		families[b.Family] = true
	}
	for _, want := range []string{"rebalance_pause", "proxy_lookups_per_sec", "proxy_lookup_p99"} {
		if !families[want] {
			t.Errorf("artifact families = %v, missing %s", families, want)
		}
	}
}

// TestRunClusterGuards pins the scenario's configuration contract.
func TestRunClusterGuards(t *testing.T) {
	peers, _ := threeDaemons(t)
	base := Config{
		Instances: 2,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2},
		Workers:   2,
		Requests:  10,
		Seed:      1,
	}
	if _, err := RunCluster(ClusterConfig{Config: base, Peers: peers, Joiner: "nope"}); err == nil {
		t.Error("unknown joiner accepted")
	}
	if _, err := RunCluster(ClusterConfig{Config: base, Peers: map[string]string{"a": peers["a"]}, Joiner: "a"}); err == nil {
		t.Error("single-member cluster accepted")
	}
}

// TestShardClientRidesOutStagedWindow pins the "unavailable" path over
// the real wire transport (cluster's own tests script it on a fake
// one): a request that lands mid-migration (instance staged on the
// target, cutover not yet committed) is retried with backoff until the
// daemon serves it — the worker never sees the window.
func TestShardClientRidesOutStagedWindow(t *testing.T) {
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}
	m := fleet.NewManager(fleet.Options{})
	m.SetTopology("a", map[string]string{"a": "http://a.example"}, 0)
	arrival := func(id string) sharding.Migration {
		return sharding.Migration{ID: id, Token: 7, Record: journal.Record{Op: journal.OpCheckpoint, ID: id,
			Spec: journal.Spec{Kind: string(spec.Kind), M: spec.M, H: spec.H, K: spec.K}, Epoch: 4, Faults: []int{2}}}
	}
	for _, id := range []string{"inst-0", "inst-1"} {
		if err := m.StageMigration(arrival(id)); err != nil {
			t.Fatal(err)
		}
	}
	srv := wire.NewServer(m, wire.ServerOptions{})
	ln := listen(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	rc, err := wire.Dial(ln.Addr().String(), wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	newClient := func(grace time.Duration) *cluster.Client {
		return cluster.New(sharding.NewRouter(map[string]string{"a": ""}, 0),
			map[string]cluster.Transport{"a": rc}, grace)
	}
	rng := rand.New(rand.NewSource(1))
	var scratch lookupScratch

	// inst-0's cutover commits once the client has been turned away
	// three times.
	sc := newClient(5 * time.Second)
	committed := make(chan error, 1)
	go func() {
		for sc.StagedWaits() < 3 {
			time.Sleep(time.Millisecond)
		}
		_, err := m.CommitMigration(arrival("inst-0"))
		committed <- err
	}()
	var st opStats
	driveLookup(sc, "inst-0", rng, 16, 1, &scratch, &st)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if st.lookups != 1 || st.errors != 0 || st.transport != 0 {
		t.Fatalf("lookup through the staged window: %+v", st)
	}
	if got := sc.StagedWaits(); got < 3 {
		t.Fatalf("staged waits = %d, want at least 3", got)
	}
	driveBatch(sc, "inst-0", rng, 18, 1, &st, nil)
	if st.batches+st.rejected != 1 || st.errors != 0 {
		t.Fatalf("burst after the staged window: %+v", st)
	}

	// With the grace window elapsed, a persistent "unavailable" (inst-1
	// never commits) surfaces as the daemon's answer instead of hanging
	// the client forever.
	var st2 opStats
	driveLookup(newClient(10*time.Millisecond), "inst-1", rng, 16, 1, &scratch, &st2)
	if st2.errors != 1 || st2.lookups != 0 {
		t.Fatalf("persistent unavailable past the grace window: %+v", st2)
	}
}
