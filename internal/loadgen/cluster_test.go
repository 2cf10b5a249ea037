package loadgen

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/cluster"
	"ftnet/internal/fleet"
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

// TestRunClusterRebalanceMidStorm is the flagship scale-out e2e: a
// 3-daemon cluster (two in the initial ring, one joining mid-storm)
// under a role-split write storm routed by the shard client. The join
// displaces instances onto the new member while writes are in flight;
// afterwards every instance must live on exactly its ring owner, at
// exactly the acknowledged epoch (zero lost / double-applied
// transitions), with a phi slice bit-identical to a client-side
// recomputation — and the clients must have converged through daemon
// redirects alone.
func TestRunClusterRebalanceMidStorm(t *testing.T) {
	peers, _ := threeDaemons(t)
	cfg := ClusterConfig{
		Config: Config{
			Instances: 12,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3},
			Workers:   4,
			Requests:  1200,
			Seed:      1,
			Scenario:  Scenario{Batch: 2},
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
		t.Fatalf("storm saw %d transport and %d unexpected-status errors — the routing client did not converge",
			res.Storm.Transport, res.Storm.Errors)
	}
	if res.Migrated == 0 {
		t.Fatal("no instance was rebalanced onto the joiner")
	}
	if res.Verified != cfg.Instances {
		t.Fatalf("verified %d/%d instances", res.Verified, cfg.Instances)
	}
	// With 12 instances over a 3-member ring, some must have moved to c
	// — and the storm kept writing to them, so the client chased at
	// least one redirect.
	if res.Redirects == 0 {
		t.Error("client followed no redirects: the storm never touched a moved instance")
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

	// The artifact families the CI shard job gates.
	art := ServiceArtifact{Kind: "service", Scenario: "cluster"}
	AppendCluster(&art, res)
	families := make(map[string]bool)
	for _, b := range art.Benchmarks {
		families[b.Family] = true
	}
	if !families["rebalance_pause"] || !families["cluster_lookups_per_sec"] {
		t.Errorf("artifact families = %v, want rebalance_pause and cluster_lookups_per_sec", families)
	}
}

// threeDaemonsRPC is threeDaemons with an ftproxy-equivalent RPC front
// (wire.Proxy over the full membership) in front, returning the HTTP
// peers and the proxy's RPC address.
func threeDaemonsRPC(t *testing.T) (map[string]string, string) {
	t.Helper()
	httpPeers, rpcPeers := threeDaemons(t)
	px := wire.NewProxy(wire.ProxyOptions{RPCPeers: rpcPeers, HTTPPeers: httpPeers})
	pln := listen(t)
	go px.Serve(pln)
	t.Cleanup(func() { px.Close() })
	return httpPeers, pln.Addr().String()
}

// TestRunClusterRebalanceMidStormRPC is the mid-storm-rebalance e2e
// restated over the binary plane: the storm's lookups and event bursts
// travel the wire protocol through a full-membership RPC proxy while
// the join displaces instances underneath it. The proxy's ring names
// the joiner from the start, so pre-join traffic converges through the
// joiner's spectator redirects and post-cutover traffic through the
// sources' hints — and the verification holds the same exact-epoch /
// bit-identical / single-owner contract at zero transport errors.
func TestRunClusterRebalanceMidStormRPC(t *testing.T) {
	peers, proxyAddr := threeDaemonsRPC(t)
	cfg := ClusterConfig{
		Config: Config{
			Instances: 12,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3},
			Workers:   4,
			Requests:  1200,
			Seed:      1,
			Scenario:  Scenario{Batch: 2},
		},
		Peers:         peers,
		Joiner:        "c",
		JoinAfterFrac: 0.3,
		ProxyRPCAddr:  proxyAddr,
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Storm.RPC {
		t.Fatal("storm did not mark the RPC plane")
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

	// The artifact carries the proxy-plane SLO families the CI shard job
	// gates — and not the same throughput a second time under the HTTP
	// run's name.
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
	if families["cluster_lookups_per_sec"] {
		t.Errorf("artifact families = %v: an RPC run reports its lookup throughput twice", families)
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

// TestShardClientRidesOutStagedWindow pins the 503 path over the real
// HTTP transport (cluster's own tests script it on a fake one): a
// request that lands mid-migration (instance staged on the target,
// cutover not yet committed) is retried with backoff until the daemon
// serves it — the worker never sees the window.
func TestShardClientRidesOutStagedWindow(t *testing.T) {
	m := fleet.NewManager(fleet.Options{})
	if _, err := m.Create("inst-0", fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	inner := fleet.NewHTTPHandler(m)
	// The first few requests hit the staged window; then the "cutover
	// commits" and the daemon answers normally.
	var staged atomic.Int64
	staged.Store(3)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if staged.Add(-1) >= 0 {
			http.Error(w, `{"error":"instance is mid-migration"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	newClient := func(grace time.Duration) *cluster.Client {
		peers := map[string]string{"a": ts.URL}
		return cluster.New(sharding.NewRouter(peers, 0),
			map[string]cluster.Transport{"a": cluster.HTTP{HTTP: ts.Client(), Base: ts.URL}}, grace)
	}
	rng := rand.New(rand.NewSource(1))
	var scratch lookupScratch

	sc := newClient(2 * time.Second)
	var st opStats
	driveLookup(sc, "inst-0", rng, 16, 1, &scratch, &st)
	if st.lookups != 1 || st.errors != 0 || st.transport != 0 {
		t.Fatalf("lookup through the staged window: %+v", st)
	}
	if got := sc.StagedWaits(); got != 3 {
		t.Fatalf("staged waits = %d, want 3", got)
	}
	driveBatch(sc, "inst-0", rng, 18, 1, &st, nil)
	if st.batches+st.rejected != 1 || st.errors != 0 {
		t.Fatalf("burst after the staged window: %+v", st)
	}

	// With the grace window elapsed, a persistent 503 surfaces as the
	// daemon's answer instead of hanging the client forever.
	staged.Store(1 << 30)
	var st2 opStats
	driveLookup(newClient(10*time.Millisecond), "inst-0", rng, 16, 1, &scratch, &st2)
	if st2.errors != 1 || st2.lookups != 0 {
		t.Fatalf("persistent 503 past the grace window: %+v", st2)
	}
}
