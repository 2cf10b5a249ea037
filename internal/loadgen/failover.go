package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/cluster"
	"ftnet/internal/fleet"
)

// The partition-torture scenario is the failover probe: storm a leader
// that a follower is tailing, cut the follower off mid-storm (T1) so
// the leader keeps acknowledging writes the replica never sees, kill
// the leader abruptly (T2), heal the follower and promote it, and
// measure how long until the promoted replica accepts its first write
// (T3). The run then restarts the deposed leader as a follower of the
// new one and requires it to self-heal: detect the higher term on its
// first watch frame, discard its unreplicated tail, resync from the new
// leader's checkpoint, and refuse direct writes with 403 — zero
// stale-term writes accepted.
//
// Two windows come out of it:
//
//	divergence_window   T2 − T1: how long the old leader acknowledged
//	                    writes no replica had — the data-loss exposure
//	                    of asynchronous replication under this load
//	failover_downtime   T3 − T2: leader kill to the promoted replica
//	                    accepting writes — the unavailability window
//
// Like restart, it is not a Scenario preset: it owns two daemon
// lifecycles. cmd/ftload wires the hooks to child processes it
// SIGSTOPs/SIGKILLs; the in-process test wires them to httptest
// servers sharing journal files.

// FailoverConfig drives one partition-torture run. Addr is the old
// leader; FollowerAddr the replica that gets promoted.
type FailoverConfig struct {
	Config
	FollowerAddr string
	// Partition cuts the follower off from the leader at T1 — ftload
	// SIGSTOPs the follower process; the in-process test cancels its
	// replication context. The leader must keep serving.
	Partition func() error
	// KillLeader terminates the leader abruptly at T2 (SIGKILL — no
	// shutdown grace).
	KillLeader func() error
	// Heal reconnects the follower (SIGCONT) before promotion. May be
	// nil when Partition left the process runnable.
	Heal func() error
	// RestartOld reboots the deposed leader over its own journal as a
	// follower of FollowerAddr and returns its base URL ("" keeps
	// cfg.Addr). Nil skips the rejoin/self-heal phase.
	RestartOld func() (addr string, err error)
	// PartitionAfterFrac and KillAfterFrac place T1 and T2 as fractions
	// of the request budget (defaults 0.3 and 0.6; the gap between them
	// is what materializes divergence).
	PartitionAfterFrac float64
	KillAfterFrac      float64
	// HealthTimeout bounds every wait: follower catch-up before the
	// storm, promotion, rejoin convergence (default 15s).
	HealthTimeout time.Duration
}

// FailoverResult reports one partition-torture run.
type FailoverResult struct {
	Storm            Result            // the pre-kill storm measurement
	Acked            map[string]uint64 // per-instance max epoch the old leader acknowledged
	Term             uint64            // leadership term after promotion
	DivergenceWindow time.Duration     // T2 − T1
	FailoverDowntime time.Duration     // T2 → first write accepted by the promoted replica
	Demotions        uint64            // deposed-leader resets observed on the rejoined daemon
	Discarded        uint64            // entries the deposed leader dropped on rejoin
	Converged        int               // instances bit-identical between new leader and rejoined replica
}

// RunFailover executes the partition-torture scenario. It returns an
// error if promotion fails, the deposed leader fails to demote and
// converge, or — the fencing contract — the deposed leader accepts
// even one direct write after rejoining.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	if cfg.Partition == nil || cfg.KillLeader == nil {
		return FailoverResult{}, fmt.Errorf("loadgen: partition-torture needs Partition and KillLeader hooks")
	}
	if cfg.FollowerAddr == "" {
		return FailoverResult{}, fmt.Errorf("loadgen: partition-torture needs the follower's base URL")
	}
	if cfg.Scenario.Batch < 1 {
		cfg.Scenario.Batch = 4
	}
	cfg.Scenario.Name = "partition-torture"
	cfg.Scenario.EventFrac = 1
	cfg.Scenario.Writers = 0
	if cfg.PartitionAfterFrac <= 0 || cfg.PartitionAfterFrac >= 1 {
		cfg.PartitionAfterFrac = 0.3
	}
	if cfg.KillAfterFrac <= cfg.PartitionAfterFrac || cfg.KillAfterFrac >= 1 {
		cfg.KillAfterFrac = cfg.PartitionAfterFrac + (1-cfg.PartitionAfterFrac)/2
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 15 * time.Second
	}
	if err := cfg.Config.Validate(); err != nil {
		return FailoverResult{}, err
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "load-partition-torture"
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ids, err := createFleet(client, cfg.Config)
	if err != nil {
		return FailoverResult{}, err
	}
	leader := cluster.HTTP{Client: client, Base: cfg.Addr}
	promoted := cluster.HTTP{Client: client, Base: cfg.FollowerAddr}
	// The follower must have replicated the fleet before the partition,
	// or the promoted leader would be missing instances rather than
	// merely trailing epochs.
	if err := awaitReplicated(client, cfg.FollowerAddr, ids, cfg.HealthTimeout); err != nil {
		return FailoverResult{}, err
	}

	// Storm with two trigger thresholds: the worker that crosses
	// PartitionAfterFrac cuts the follower off (T1), the one that
	// crosses KillAfterFrac kills the leader (T2) and stops the run.
	// Between the two, every acknowledged write is divergence.
	acked := make(map[string]*atomic.Uint64, len(ids))
	for _, id := range ids {
		acked[id] = new(atomic.Uint64)
	}
	var (
		ops           atomic.Int64
		stopped       atomic.Bool
		partOnce      sync.Once
		killOnce      sync.Once
		partErr       error
		killErr       error
		partitionedAt time.Time
		killedAt      time.Time
		partThreshold = int64(float64(cfg.Requests) * cfg.PartitionAfterFrac)
		killThreshold = int64(float64(cfg.Requests) * cfg.KillAfterFrac)
	)
	_, nHost := TargetHostSizes(cfg.Spec)
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
			for i := 0; i < n && !stopped.Load(); i++ {
				id := ids[rng.Intn(len(ids))]
				driveBatch(leader, id, rng, nHost, cfg.Scenario.Batch, st, acked[id])
				done := ops.Add(1)
				if done >= partThreshold {
					partOnce.Do(func() {
						partitionedAt = time.Now()
						partErr = cfg.Partition()
					})
				}
				if done >= killThreshold {
					killOnce.Do(func() {
						stopped.Store(true)
						killedAt = time.Now()
						killErr = cfg.KillLeader()
					})
				}
			}
		}(w, n)
	}
	wg.Wait()

	res := FailoverResult{Acked: make(map[string]uint64, len(ids))}
	res.Storm = mergeStats(perWorker, time.Since(start))
	for _, id := range ids {
		res.Acked[id] = acked[id].Load()
	}
	if partErr != nil {
		return res, fmt.Errorf("loadgen: partition hook: %v", partErr)
	}
	if killErr != nil {
		return res, fmt.Errorf("loadgen: kill hook: %v", killErr)
	}
	if partitionedAt.IsZero() || killedAt.IsZero() {
		return res, fmt.Errorf("loadgen: storm finished before both triggers fired (partition at %d ops, kill at %d)",
			partThreshold, killThreshold)
	}
	res.DivergenceWindow = killedAt.Sub(partitionedAt)

	// Heal and promote. The downtime clock runs from the kill until the
	// promoted replica accepts a write — promotion plus however long
	// the replica needs to notice its stream is dead and drain.
	if cfg.Heal != nil {
		if err := cfg.Heal(); err != nil {
			return res, fmt.Errorf("loadgen: heal hook: %v", err)
		}
	}
	term, err := promote(client, cfg.FollowerAddr, cfg.HealthTimeout)
	if err != nil {
		return res, err
	}
	res.Term = term
	if err := awaitWritable(promoted, ids[0], cfg.HealthTimeout); err != nil {
		return res, err
	}
	res.FailoverDowntime = time.Since(killedAt)

	// Advance the new leader past the promotion point so the rejoined
	// deposed leader replicates post-failover history, not just the
	// checkpoint.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	var st opStats
	for i := 0; i < 32; i++ {
		driveBatch(promoted, ids[rng.Intn(len(ids))], rng, nHost, cfg.Scenario.Batch, &st, nil)
	}

	if cfg.RestartOld == nil {
		return res, nil
	}
	oldAddr, err := cfg.RestartOld()
	if err != nil {
		return res, fmt.Errorf("loadgen: restart-old hook: %v", err)
	}
	if oldAddr == "" {
		oldAddr = cfg.Addr
	}
	if err := awaitHealthy(client, oldAddr, cfg.HealthTimeout); err != nil {
		return res, err
	}
	// Self-healing contract: the rejoined daemon must demote (observe
	// the higher term, discard its unreplicated tail) ...
	res.Demotions, res.Discarded, err = awaitDemotion(client, oldAddr, cfg.HealthTimeout)
	if err != nil {
		return res, err
	}
	// ... refuse direct writes — zero stale-term writes accepted ...
	if err := requireReadOnly(cluster.HTTP{Client: client, Base: oldAddr}, ids[0], nHost); err != nil {
		return res, err
	}
	// ... and converge bit-identically with the promoted leader.
	fv, err := VerifyFollower(cfg.FollowerAddr, oldAddr, ids, cfg.HealthTimeout)
	if err != nil {
		return res, err
	}
	res.Converged = fv.Instances
	return res, nil
}

// promote POSTs /v1/promote on the replica, retrying while it is still
// unreachable or draining, and returns the new leadership term.
func promote(client *http.Client, addr string, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Post(addr+"/v1/promote", "application/json", nil)
		if err == nil {
			var pr fleet.PromoteResponse
			derr := json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil {
				return pr.Term, nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("loadgen: promote %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitWritable polls until the promoted replica accepts a mutation.
// An applied burst proves the write path open; so does one the state
// machine rejected (the request got past the posture check). Anything
// else — read-only above all — means not yet.
func awaitWritable(promoted cluster.HTTP, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, err := promoted.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventRepair, Node: 0}})
		if err == nil || rejectedByStateMachine(err) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: promoted replica %s not writable: %v", promoted.Base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitReplicated waits until every id exists on the replica.
func awaitReplicated(client *http.Client, addr string, ids []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			if _, err := fetchInstance(client, addr, id); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: follower %s never replicated %s within %v", addr, id, timeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// awaitHealthy polls /healthz until the daemon answers 200.
func awaitHealthy(client *http.Client, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: daemon %s not healthy within %v", addr, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitDemotion polls the rejoined daemon's /v1/stats until its
// replication loop reports at least one deposed-leader reset, and
// returns the demotion and discarded-entry counters.
func awaitDemotion(client *http.Client, addr string, timeout time.Duration) (demotions, discarded uint64, err error) {
	deadline := time.Now().Add(timeout)
	for {
		var st fleet.StatsResponse
		resp, gerr := client.Get(addr + "/v1/stats")
		if gerr == nil {
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil && st.Follower != nil && st.Follower.Demotions > 0 {
				return st.Follower.Demotions, st.Follower.Discarded, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("loadgen: rejoined leader %s never demoted (no higher-term detection) within %v", addr, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// requireReadOnly fires one direct write at the deposed leader and
// requires the read-only fence — any acceptance is a stale-term write,
// the split-brain failure the term plane exists to prevent.
func requireReadOnly(deposed cluster.HTTP, id string, nHost int) error {
	_, err := deposed.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: nHost - 1}})
	if !errors.Is(err, fleet.ErrReadOnly) {
		return fmt.Errorf("loadgen: deposed leader %s answered a direct write with %v, want the read-only refusal — stale-term write accepted",
			deposed.Base, err)
	}
	return nil
}
