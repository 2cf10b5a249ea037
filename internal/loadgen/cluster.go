package loadgen

import (
	"errors"
	"fmt"
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

	for name, url := range cfg.Peers {
		if err := AwaitHealthy(url, cfg.HealthTimeout); err != nil {
			return ClusterResult{}, fmt.Errorf("loadgen: cluster member %s: %w", name, err)
		}
	}
	setRing := func(name string, members map[string]string) error {
		err := control(cfg.Peers[name]).SetRing(fleet.RingRequest{Self: name, Peers: members, Replicas: cfg.Replicas})
		if err != nil {
			return fmt.Errorf("install ring on %s: %w", name, err)
		}
		return nil
	}
	// Install the initial topology. The joiner boots as a spectator on
	// the same ring: it owns nothing yet, so anything misdirected to it
	// (an RPC proxy whose ring already names the full membership) bounces
	// to the real owner with a hint instead of 404ing. It gets the grown
	// ring at join time, first, so it can accept migrations the instant
	// the initial members learn the new membership.
	for name := range cfg.Peers {
		if err := setRing(name, initial); err != nil {
			return ClusterResult{}, fmt.Errorf("loadgen: %w", err)
		}
	}

	// Instances are created where the initial ring puts them.
	initialRing := sharding.New(memberNames(initial), cfg.Replicas)
	ids := cfg.InstanceIDs()
	for _, id := range ids {
		if err := createInstance(control(initial[initialRing.Owner(id)]), id, cfg.Spec); err != nil {
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
			members[name] = cluster.HTTP(control(url))
		}
	}
	client := cluster.New(sharding.NewRouter(routed, cfg.Replicas), members, cfg.HealthTimeout)

	// The worker that crosses the threshold performs the join +
	// rebalance inline — the storm keeps running on the other workers
	// while instances are fenced, streamed and cut over underneath it.
	res := ClusterResult{Exports: make(map[string]*obs.Export, len(cfg.Peers))}
	join := &trigger{after: cfg.JoinAfterFrac, fire: func() error {
		start := time.Now()
		// Joiner first: its ring must name it owner before any stage
		// frame arrives.
		if err := setRing(cfg.Joiner, cfg.Peers); err != nil {
			return err
		}
		for name := range initial {
			if err := setRing(name, cfg.Peers); err != nil {
				return err
			}
		}
		for name, url := range initial {
			rr, err := control(url).Rebalance()
			if err != nil {
				return fmt.Errorf("rebalance %s: %w", name, err)
			}
			res.Migrated += rr.Count
		}
		res.RebalanceWall = time.Since(start)
		return nil
	}}
	res.Storm, res.Acked = cfg.storm(client, lookupBatch, ids, join)
	res.Storm.RPC = cfg.ProxyRPCAddr != ""
	res.Redirects, res.StagedWaits = client.Redirects(), client.StagedWaits()
	if err := join.fired("join"); err != nil {
		return res, err
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
		if err := verifyClusterInstance(cfg, finalRing, id, res.Acked[id], strict); err != nil {
			return res, err
		}
		res.Verified++
	}
	return res, nil
}

// verifyClusterInstance holds one instance to the handoff contract:
// its ring owner serves it and passes verifyInstance, and every other
// member says it is not theirs (redirects, or has never heard of it).
func verifyClusterInstance(cfg ClusterConfig, ring *sharding.Ring, id string, acked uint64, strict bool) error {
	owner := ring.Owner(id)
	if _, err := verifyInstance(control(cfg.Peers[owner]), id, acked, strict); err != nil {
		return fmt.Errorf("%w (ring owner %s, after the handoff)", err, owner)
	}
	for name, url := range cfg.Peers {
		if name == owner {
			continue
		}
		switch _, err := control(url).Instance(id); {
		case err == nil:
			return fmt.Errorf("loadgen: %s also served by non-owner %s — double ownership after the rebalance", id, name)
		case !errors.Is(err, fleet.ErrWrongShard) && !errors.Is(err, fleet.ErrNotFound):
			return fmt.Errorf("loadgen: probe %s on %s: %w", id, name, err)
		}
	}
	return nil
}

func memberNames(peers map[string]string) []string {
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	return names
}
