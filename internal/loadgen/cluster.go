package loadgen

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/obs"
	sharding "ftnet/internal/shard"
)

// The cluster scenario is the scale-out probe: storm a sharded fleet
// of daemons through an ftproxy RPC front while a new member joins the
// ring mid-storm and the displaced instances are checkpoint-streamed
// to it. The proxy routes by the same consistent-hash ring the daemons
// use, but treats the ring as a hint: a wrong-shard refusal teaches it
// the instance's real home. The storm's transport is a shardClient
// over the wire client at that one front: it rides out an
// "unavailable" answer (the instance is staged mid-migration) with
// backoff, and asks again after the rare double bounce the proxy could
// not chase mid-cutover. No retry logic leaks to the workers — the
// client converges on its own, which is the acceptance contract.
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
// Config.RPCAddr is the ftproxy RPC front the storm goes through, whose
// ring names every peer; Config.RPCLookupBatch and Config.RPCConns
// apply.
type ClusterConfig struct {
	Config
	// Peers is the full membership, name -> base URL of its JSON API,
	// the control plane. Every daemon must be up; Config.Addr is
	// ignored.
	Peers map[string]string
	// Joiner is the member excluded from the initial topology and added
	// to every daemon's ring when the storm crosses joinAt; the initial
	// members then rebalance their displaced instances onto it.
	Joiner string
}

// joinAt is the fraction of the request budget completed before the
// join + rebalance fires: mid-storm.
const joinAt = 0.4

// ClusterResult reports one scale-out run.
type ClusterResult struct {
	Storm         Result
	Acked         map[string]uint64 // per-instance max acknowledged epoch
	Migrated      int               // instances the rebalance moved
	RebalanceWall time.Duration     // join start to last rebalance done
	Redirects     uint64            // wrong-shard answers the client asked again after
	StagedWaits   uint64            // unavailable (staged) answers ridden out
	PauseMax      time.Duration     // widest write-fence window (daemon obs)
	Verified      int               // instances that passed every check
	Exports       map[string]*obs.Export
}

// RunCluster executes the scale-out scenario: install the initial
// ring, storm through the proxy, join + rebalance mid-storm,
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
	// Role-split shape: dedicated writers storm bursts while the other
	// workers measure routed lookup throughput — the
	// proxy_lookups_per_sec figure.
	cfg.Scenario.EventFrac = 1
	if cfg.Scenario.Writers < 1 {
		cfg.Scenario.Writers = cfg.Workers / 2
		if cfg.Scenario.Writers < 1 {
			cfg.Scenario.Writers = 1
		}
	}
	if err := cfg.Config.Validate(); err != nil {
		return ClusterResult{}, err
	}

	for name, url := range cfg.Peers {
		if err := AwaitHealthy(url, healthTimeout); err != nil {
			return ClusterResult{}, fmt.Errorf("loadgen: cluster member %s: %w", name, err)
		}
	}
	setRing := func(name string, members map[string]string) error {
		err := control(cfg.Peers[name]).SetRing(fleet.RingRequest{Self: name, Peers: members})
		if err != nil {
			return fmt.Errorf("install ring on %s: %w", name, err)
		}
		return nil
	}
	// Install the initial topology. The joiner boots as a spectator on
	// the same ring: it owns nothing yet, so anything misdirected to it
	// (by the proxy, whose ring already names the full membership) bounces
	// to the real owner with a hint instead of 404ing. It gets the grown
	// ring at join time, first, so it can accept migrations the instant
	// the initial members learn the new membership.
	for name := range cfg.Peers {
		if err := setRing(name, initial); err != nil {
			return ClusterResult{}, fmt.Errorf("loadgen: %w", err)
		}
	}

	// Instances are created where the initial ring puts them.
	initialRing := sharding.New(memberNames(initial), 0)
	ids := cfg.InstanceIDs()
	for _, id := range ids {
		if err := createInstance(control(initial[initialRing.Owner(id)]), id, cfg.Spec); err != nil {
			return ClusterResult{}, err
		}
	}

	// Nobody tells the proxy about the join: what its ring gives the
	// joiner bounces off the spectator to its real home before the join,
	// and off the old home back to the ring's answer after the cutover —
	// it converges through the daemons' hints alone.
	rc, lookupBatch, err := cfg.dataPlane()
	if err != nil {
		return ClusterResult{}, err
	}
	defer rc.Close()
	client := &shardClient{t: rc, grace: healthTimeout}

	// The worker that crosses the threshold performs the join +
	// rebalance inline — the storm keeps running on the other workers
	// while instances are fenced, streamed and cut over underneath it.
	res := ClusterResult{Exports: make(map[string]*obs.Export, len(cfg.Peers))}
	join := &trigger{after: joinAt, fire: func() error {
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
	res.Redirects, res.StagedWaits = client.redirects.Load(), client.stagedWaits.Load()
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
	finalRing := sharding.New(memberNames(cfg.Peers), 0)
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
	if _, err := verifyInstance(control(cfg.Peers[owner]), cfg.Spec, id, acked, strict); err != nil {
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

// stagedBackoff is the pause between two asks of a request refused as
// unavailable: a staged window lasts about one fsync on the target.
const stagedBackoff = 2 * time.Millisecond

// shardClient is the cluster storm's transport: t reaches the routing
// front, which owns placement, and shardClient adds the one rule the
// front leaves to its caller. After a wrong-shard answer it asks the
// same target again, once — the front has learned the new home by
// then. After "unavailable" (an instance staged mid-migration) it
// waits stagedBackoff and asks again until grace has passed. Both
// refusals guarantee nothing was applied, so asking again is safe for
// a write. Everything else is the answer — above all a transport
// failure, after which a write's fate is unknown: it is never sent
// twice.
type shardClient struct {
	t     transport
	grace time.Duration

	redirects   atomic.Uint64 // wrong-shard answers asked again after
	stagedWaits atomic.Uint64 // unavailable answers ridden out
}

// do sends one request by call and asks again as shardClient says;
// what it returns is final.
func (c *shardClient) do(call func() error) error {
	reasked := false
	deadline := time.Now().Add(c.grace)
	for {
		err := call()
		switch {
		case errors.Is(err, fleet.ErrWrongShard) && !reasked:
			reasked = true
			c.redirects.Add(1)
		case errors.Is(err, fleet.ErrUnavailable) && time.Now().Before(deadline):
			c.stagedWaits.Add(1)
			time.Sleep(stagedBackoff)
		default:
			return err
		}
	}
}

func (c *shardClient) Lookup(id string, x int) (phi int, epoch uint64, err error) {
	err = c.do(func() (err error) {
		phi, epoch, err = c.t.Lookup(id, x)
		return err
	})
	return phi, epoch, err
}

func (c *shardClient) LookupBatch(id string, xs, phis []int) (epoch uint64, err error) {
	err = c.do(func() (err error) {
		epoch, err = c.t.LookupBatch(id, xs, phis)
		return err
	})
	return epoch, err
}

func (c *shardClient) ApplyBatch(id string, events []fleet.Event) (res fleet.EventResult, err error) {
	err = c.do(func() (err error) {
		res, err = c.t.ApplyBatch(id, events)
		return err
	})
	return res, err
}
