package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/cluster"
	"ftnet/internal/fleet"
	"ftnet/internal/obs"
	sharding "ftnet/internal/shard"
)

// The cluster scenario is the scale-out probe: storm a sharded fleet
// of daemons through a cluster.Client while a new member joins the
// ring mid-storm and the displaced instances are checkpoint-streamed
// to it. The client routes by the same consistent-hash ring the
// daemons use, but treats the ring as a hint exactly like ftproxy
// does: a wrong-shard refusal teaches it the instance's real home, an
// "unavailable" one (the instance is staged mid-migration) is ridden
// out with backoff. No retry logic leaks to the workers — the client
// converges on its own, which is the acceptance contract.
//
// After the storm, verification holds the cluster to the single-daemon
// invariants across the ownership handoff: every instance lives on
// exactly its ring owner, its epoch equals the highest epoch any
// client was acknowledged (zero lost, zero double-applied
// transitions), and its full phi slice is bit-identical to a fresh
// client-side recomputation over the recovered fault set.
//
// Like restart and partition-torture it is not a Scenario preset: it
// owns the topology lifecycle (installing rings over /v1/ring and
// triggering /v1/rebalance), so the daemons are booted unsharded and
// the scenario turns them into a cluster.

// ClusterConfig drives one scale-out run. Peers names every running
// daemon; Joiner is held out of the initial ring and joined mid-storm.
type ClusterConfig struct {
	Config
	// Peers is the full membership, name -> base URL. Every daemon must
	// be up; Config.Addr is ignored (the shard client routes by ring).
	Peers map[string]string
	// Joiner is the member excluded from the initial topology and added
	// to every daemon's ring when the storm crosses JoinAfterFrac; the
	// initial members then rebalance their displaced instances onto it.
	Joiner string
	// Replicas is the ring vnode count installed on every daemon and
	// used by the client (0 selects the shard package default).
	Replicas int
	// JoinAfterFrac is the fraction of the request budget to complete
	// before the join + rebalance fires (default 0.4 — mid-storm).
	JoinAfterFrac float64
	// HealthTimeout bounds the initial health checks and the client's
	// patience with a 503-staged instance (default 15s).
	HealthTimeout time.Duration
	// ProxyRPCAddr, when non-empty, drives the storm's data plane
	// (lookups and event bursts) over the binary RPC protocol through
	// an ftproxy RPC front at this address instead of HTTP direct to
	// the daemons. The proxy owns the routing then — wrong-shard
	// redirect chasing happens inside it — and the storm client is the
	// same cluster.Client over a single member: it rides out
	// staged/unavailable windows with backoff, and re-issues the rare
	// double bounce the proxy could not chase mid-cutover. Control
	// plane (creates, ring installs, rebalances, verification) stays on
	// HTTP. Config.RPCLookupBatch and Config.RPCConns apply.
	ProxyRPCAddr string
}

// ClusterResult reports one scale-out run.
type ClusterResult struct {
	Storm         Result
	Acked         map[string]uint64 // per-instance max acknowledged epoch
	Migrated      int               // instances the rebalance moved
	RebalanceWall time.Duration     // join start to last rebalance done
	Redirects     uint64            // wrong-shard hints the client followed
	StagedWaits   uint64            // 503-staged responses ridden out
	PauseMax      time.Duration     // widest write-fence window (daemon obs)
	Verified      int               // instances that passed every check
	Exports       map[string]*obs.Export
}

// RunCluster executes the scale-out scenario: install the initial
// ring, storm through the shard client, join + rebalance mid-storm,
// verify ownership, epochs and mappings afterwards.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	if len(cfg.Peers) < 2 {
		return ClusterResult{}, fmt.Errorf("loadgen: cluster scenario needs at least 2 peers")
	}
	if _, ok := cfg.Peers[cfg.Joiner]; !ok {
		return ClusterResult{}, fmt.Errorf("loadgen: joiner %q is not in peers", cfg.Joiner)
	}
	initial := make(map[string]string, len(cfg.Peers)-1)
	for name, url := range cfg.Peers {
		if name != cfg.Joiner {
			initial[name] = url
		}
	}
	cfg.Scenario.Name = "cluster"
	if cfg.Scenario.Batch < 1 {
		cfg.Scenario.Batch = 4
	}
	// Role-split shape: dedicated writers storm events:batch while the
	// other workers measure routed lookup throughput — the
	// cluster_lookups_per_sec figure.
	cfg.Scenario.EventFrac = 1
	if cfg.Scenario.Writers < 1 {
		cfg.Scenario.Writers = cfg.Workers / 2
		if cfg.Scenario.Writers < 1 {
			cfg.Scenario.Writers = 1
		}
	}
	if cfg.JoinAfterFrac <= 0 || cfg.JoinAfterFrac >= 1 {
		cfg.JoinAfterFrac = 0.4
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 15 * time.Second
	}
	if err := cfg.Config.Validate(); err != nil {
		return ClusterResult{}, err
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "load-cluster"
	}

	hc := &http.Client{Timeout: 30 * time.Second}
	for name, url := range cfg.Peers {
		if err := awaitHealthy(hc, url, cfg.HealthTimeout); err != nil {
			return ClusterResult{}, fmt.Errorf("loadgen: cluster member %s: %w", name, err)
		}
	}
	// Install the initial topology (joiner stays out: it gets its ring
	// at join time, first, so it can accept migrations the instant the
	// initial members learn the new membership).
	for name, url := range initial {
		if err := postRing(hc, url, fleet.RingRequest{Self: name, Peers: initial, Replicas: cfg.Replicas}); err != nil {
			return ClusterResult{}, err
		}
	}
	// The joiner boots as a spectator on the same ring: it owns nothing
	// yet, so anything misdirected to it (an RPC proxy whose ring
	// already names the full membership) bounces to the real owner with
	// a hint instead of 404ing.
	if err := postRing(hc, cfg.Peers[cfg.Joiner], fleet.RingRequest{
		Self: cfg.Joiner, Peers: initial, Replicas: cfg.Replicas,
	}); err != nil {
		return ClusterResult{}, err
	}

	// Instances are created where the initial ring puts them.
	initialRing := sharding.New(memberNames(initial), cfg.Replicas)
	ids := cfg.InstanceIDs()
	for _, id := range ids {
		if err := createInstance(hc, initial[initialRing.Owner(id)], id, cfg.Spec); err != nil {
			return ClusterResult{}, err
		}
	}

	// The storm client is never told about the join. Over HTTP it is a
	// router over the full membership, like a proxy configured ahead of
	// the join: what the ring gives the joiner bounces off the spectator
	// to its real home before the join, and off the old home back to the
	// ring's answer after the cutover — it converges through the
	// daemons' hints alone. Over RPC it is a router over one member, the
	// proxy front, which does the chasing.
	t, lookupBatch, hangUp, err := cfg.dataPlane(cfg.ProxyRPCAddr, nil)
	if err != nil {
		return ClusterResult{}, err
	}
	defer hangUp()
	routed := cfg.Peers
	members := make(map[string]cluster.Transport, len(cfg.Peers))
	if cfg.ProxyRPCAddr != "" {
		routed = map[string]string{"proxy": ""}
		members["proxy"] = t
	} else {
		for name, url := range cfg.Peers {
			members[name] = cluster.HTTP{Client: hc, Base: url}
		}
	}
	storm := cluster.New(sharding.NewRouter(routed, cfg.Replicas), members, cfg.HealthTimeout)

	acked := make(map[string]*atomic.Uint64, len(ids))
	for _, id := range ids {
		acked[id] = new(atomic.Uint64)
	}
	var (
		ops           atomic.Int64
		joinOnce      sync.Once
		joinErr       error
		joinedAt      time.Time
		rebalanceWall time.Duration
		migrated      int
		threshold     = int64(float64(cfg.Requests) * cfg.JoinAfterFrac)
	)
	join := func() {
		joinedAt = time.Now()
		// Joiner first: its ring must name it owner before any stage
		// frame arrives.
		if joinErr = postRing(hc, cfg.Peers[cfg.Joiner], fleet.RingRequest{
			Self: cfg.Joiner, Peers: cfg.Peers, Replicas: cfg.Replicas,
		}); joinErr != nil {
			return
		}
		for name, url := range initial {
			if joinErr = postRing(hc, url, fleet.RingRequest{
				Self: name, Peers: cfg.Peers, Replicas: cfg.Replicas,
			}); joinErr != nil {
				return
			}
		}
		for name, url := range initial {
			n, err := postRebalance(hc, url)
			if err != nil {
				joinErr = fmt.Errorf("loadgen: rebalance %s: %w", name, err)
				return
			}
			migrated += n
		}
		rebalanceWall = time.Since(joinedAt)
	}

	nTarget, nHost := TargetHostSizes(cfg.Spec)
	perWorker := make([]opStats, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			st := &perWorker[w]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			writer := w < cfg.Scenario.Writers
			var scratch lookupScratch
			for i := 0; i < n; i++ {
				id := ids[rng.Intn(len(ids))]
				if writer {
					driveBatch(storm, id, rng, nHost, cfg.Scenario.Batch, st, acked[id])
				} else {
					driveLookup(storm, id, rng, nTarget, lookupBatch, &scratch, st)
				}
				// The worker that crosses the threshold performs the
				// join + rebalance inline — the storm keeps running on
				// the other workers while instances are fenced,
				// streamed and cut over underneath it.
				if ops.Add(1) >= threshold {
					joinOnce.Do(join)
				}
			}
		}(w, n)
	}
	wg.Wait()

	res := ClusterResult{
		Acked:         make(map[string]uint64, len(ids)),
		Migrated:      migrated,
		RebalanceWall: rebalanceWall,
		Redirects:     storm.Redirects(),
		StagedWaits:   storm.StagedWaits(),
		Exports:       make(map[string]*obs.Export, len(cfg.Peers)),
	}
	res.Storm = mergeStats(perWorker, time.Since(start))
	res.Storm.RPC = cfg.ProxyRPCAddr != ""
	for _, id := range ids {
		res.Acked[id] = acked[id].Load()
	}
	if joinErr != nil {
		return res, joinErr
	}
	if joinedAt.IsZero() {
		return res, fmt.Errorf("loadgen: storm finished before the join threshold (%d ops) was reached", threshold)
	}
	if res.Migrated == 0 {
		return res, fmt.Errorf("loadgen: the join displaced no instances — nothing was rebalanced")
	}

	// Scrape every member: the fence-pause histogram lives on whichever
	// daemons ran migrations.
	for name, url := range cfg.Peers {
		e, err := FetchObs(url)
		if err != nil {
			return res, err
		}
		res.Exports[name] = e
		if h, ok := e.Find("ftnet_shard_migration_pause_seconds", ""); ok && h.Count > 0 {
			if d := time.Duration(h.MaxNS); d > res.PauseMax {
				res.PauseMax = d
			}
		}
	}

	// Verify against the final ring. Epoch equality is the zero
	// lost/double-applied proof — but only when every storm response
	// was seen (a transport failure could hide an applied write).
	finalRing := sharding.New(memberNames(cfg.Peers), cfg.Replicas)
	strict := res.Storm.Transport == 0 && res.Storm.Errors == 0
	for _, id := range ids {
		if err := verifyClusterInstance(hc, cfg, finalRing, id, res.Acked[id], strict, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// verifyClusterInstance holds one instance to the handoff contract:
// its ring owner serves it and passes verifyInstance, and no other
// member serves it at all.
func verifyClusterInstance(hc *http.Client, cfg ClusterConfig, ring *sharding.Ring, id string, acked uint64, strict bool, res *ClusterResult) error {
	owner := ring.Owner(id)
	if _, err := verifyInstance(hc, cfg.Peers[owner], id, acked, strict); err != nil {
		return fmt.Errorf("%w (ring owner %s, after the handoff)", err, owner)
	}
	for name, url := range cfg.Peers {
		if name == owner {
			continue
		}
		resp, err := hc.Get(url + "/v1/instances/" + id)
		if err != nil {
			return fmt.Errorf("loadgen: probe %s on %s: %v", id, name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return fmt.Errorf("loadgen: %s also served by non-owner %s — double ownership after the rebalance", id, name)
		}
	}
	res.Verified++
	return nil
}

func memberNames(peers map[string]string) []string {
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	return names
}

func postRing(hc *http.Client, url string, req fleet.RingRequest) error {
	body, _ := json.Marshal(req)
	resp, err := hc.Post(url+"/v1/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: install ring on %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: install ring on %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// postRebalance triggers one daemon's rebalance and returns how many
// instances it migrated away.
func postRebalance(hc *http.Client, url string) (int, error) {
	resp, err := hc.Post(url+"/v1/rebalance", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rr fleet.RebalanceResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return rr.Count, fmt.Errorf("status %d: %s", resp.StatusCode, rr.Error)
	}
	return rr.Count, nil
}
