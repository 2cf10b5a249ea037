package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

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
		Peers:  peers,
		Joiner: "c",
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
// the real wire transport (TestShardClientConvergence scripts it on a
// fake one): a request that lands mid-migration (instance staged on the
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
	newClient := func(grace time.Duration) *shardClient {
		return &shardClient{t: rc, grace: grace}
	}
	rng := rand.New(rand.NewSource(1))
	var scratch lookupScratch

	// inst-0's cutover commits once the client has been turned away
	// three times.
	sc := newClient(5 * time.Second)
	committed := make(chan error, 1)
	go func() {
		for sc.stagedWaits.Load() < 3 {
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
	if got := sc.stagedWaits.Load(); got < 3 {
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

// answers is a fake routing front: it answers from a queue of outcomes
// (exhausted, from forever; nil is success) and records every call.
type answers struct {
	mu      sync.Mutex
	queue   []error
	forever error
	calls   []string
}

func (a *answers) next(op string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls = append(a.calls, op)
	if len(a.queue) > 0 {
		err := a.queue[0]
		a.queue = a.queue[1:]
		return err
	}
	return a.forever
}

func (a *answers) Lookup(id string, x int) (int, uint64, error) {
	return x + 1, 7, a.next("lookup")
}

func (a *answers) LookupBatch(id string, xs, phis []int) (uint64, error) {
	for i, x := range xs {
		phis[i] = x + 1
	}
	return 7, a.next("batch")
}

func (a *answers) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	return fleet.EventResult{Epoch: 9, Applied: len(events)}, a.next("apply")
}

func bounce() error { return fleet.WrongShardError("http://b.example:8100", "owned elsewhere") }
func staged() error { return fmt.Errorf("arriving: %w", fleet.ErrUnavailable) }

// errTransport stands for "a *wire.TransportError" in the table below.
var errTransport = errors.New("transport")

// TestShardClientConvergence scripts the one rule shardClient adds to
// the routing front, a row per clause: what is asked again, how often,
// and what is final.
func TestShardClientConvergence(t *testing.T) {
	repeat := func(n int, op string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = op
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		grace   time.Duration
		op      string
		queue   []error
		forever error

		wantCalls     []string
		wantErr       error // matched with errors.Is; nil = success
		wantRedirects uint64
		wantWaits     uint64
	}{
		{name: "staged window ridden out and counted",
			grace: 5 * time.Second, op: "apply", queue: []error{staged(), staged(), staged()},
			wantCalls: repeat(4, "apply"), wantWaits: 3},
		{name: "grace deadline surfaces the refusal",
			grace: 10 * time.Millisecond, op: "lookup", forever: staged(),
			wantErr: fleet.ErrUnavailable},
		{name: "wrong shard asked again once, then answered",
			grace: time.Second, op: "batch", queue: []error{bounce()},
			wantCalls: repeat(2, "batch"), wantRedirects: 1},
		{name: "persistent wrong shard asked again at most once",
			grace: time.Second, op: "lookup", forever: bounce(),
			wantCalls: repeat(2, "lookup"), wantErr: fleet.ErrWrongShard, wantRedirects: 1},
		{name: "ApplyBatch not resent after a transport error",
			grace: time.Second, op: "apply", forever: &wire.TransportError{Err: errors.New("connection reset")},
			wantCalls: []string{"apply"}, wantErr: errTransport},
		{name: "ApplyBatch not resent after a state-machine rejection",
			grace: time.Second, op: "apply", forever: fleet.ErrBudget,
			wantCalls: []string{"apply"}, wantErr: fleet.ErrConflict},
		{name: "not found is final",
			grace: time.Second, op: "lookup", forever: fleet.ErrNotFound,
			wantCalls: []string{"lookup"}, wantErr: fleet.ErrNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := &answers{queue: tc.queue, forever: tc.forever}
			c := &shardClient{t: a, grace: tc.grace}

			var err error
			switch tc.op {
			case "lookup":
				var phi int
				if phi, _, err = c.Lookup("inst-0", 4); err == nil && phi != 5 {
					t.Errorf("Lookup = %d, want 5", phi)
				}
			case "batch":
				phis := make([]int, 2)
				if _, err = c.LookupBatch("inst-0", []int{1, 2}, phis); err == nil && !reflect.DeepEqual(phis, []int{2, 3}) {
					t.Errorf("LookupBatch = %v, want [2 3]", phis)
				}
			case "apply":
				var res fleet.EventResult
				if res, err = c.ApplyBatch("inst-0", []fleet.Event{{Kind: fleet.EventFault, Node: 1}}); err == nil && res.Epoch != 9 {
					t.Errorf("ApplyBatch = %+v, want epoch 9", res)
				}
			}
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case tc.wantErr == errTransport:
				if !wire.IsTransport(err) {
					t.Fatalf("err = %v, want the transport failure", err)
				}
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantCalls != nil && !reflect.DeepEqual(a.calls, tc.wantCalls) {
				t.Errorf("calls = %v, want %v", a.calls, tc.wantCalls)
			}
			if got := c.redirects.Load(); got != tc.wantRedirects {
				t.Errorf("redirects = %d, want %d", got, tc.wantRedirects)
			}
			if tc.wantWaits != 0 && c.stagedWaits.Load() != tc.wantWaits {
				t.Errorf("staged waits = %d, want %d", c.stagedWaits.Load(), tc.wantWaits)
			}
			if tc.wantErr == fleet.ErrUnavailable && c.stagedWaits.Load() == 0 {
				t.Error("the refusal surfaced without a single wait")
			}
		})
	}
}

// TestShardClientConcurrent is for the race detector: callers sharing
// one client while refusals land on whichever of them asks. The script
// holds one wrong-shard answer, so no request can meet two.
func TestShardClientConcurrent(t *testing.T) {
	a := &answers{queue: []error{staged(), bounce(), staged(), staged()}}
	c := &shardClient{t: a, grace: 5 * time.Second}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("inst-%d", (w+i)%5)
				if _, err := c.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: 0}}); err != nil {
					t.Errorf("ApplyBatch(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.redirects.Load() != 1 || c.stagedWaits.Load() != 3 {
		t.Fatalf("redirects %d, staged waits %d; want 1, 3 (every scripted refusal ridden out once)",
			c.redirects.Load(), c.stagedWaits.Load())
	}
}
