package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ftnet/internal/fleet"
)

// The partition-torture scenario is the failover probe: storm a leader
// that a follower is tailing, cut the follower off mid-storm (T1) so
// the leader keeps acknowledging writes the replica never sees, kill
// the leader abruptly (T2), heal the follower and promote it, and
// measure how long until the promoted replica accepts its first write
// (T3). The run then restarts the old leader as a follower of the new
// one and requires it to self-heal: if it recovered anything past the
// promotion fence it must detect the higher term on its first watch
// frame, discard that tail and resync from the new leader (the
// divergent case); if the partition dropped nothing — a SIGSTOPped
// follower drains its socket buffer after the heal — there is nothing to
// depose and it must simply resume (the no-divergence case). Either way
// it converges bit-identically and refuses direct writes with 403 —
// zero stale-term writes accepted.
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
// SIGSTOPs/SIGKILLs; the in-process test wires them to in-process
// daemons sharing journal files.

// FailoverConfig drives one partition-torture run. Addr is the old
// leader and RPCAddr its RPC plane, which the storm drives;
// FollowerAddr is the replica that gets promoted, reached only on its
// JSON API.
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
}

// partitionAt and failoverKillAt place T1 and T2 as fractions of the
// request budget: the kill halfway through what the partition leaves.
// The gap between them is what materializes divergence.
const (
	partitionAt    = 0.3
	failoverKillAt = 0.65
)

// FailoverResult reports one partition-torture run.
type FailoverResult struct {
	Storm            Result            // the pre-kill storm measurement
	Acked            map[string]uint64 // per-instance max epoch the old leader acknowledged
	Term             uint64            // leadership term after promotion
	DivergenceWindow time.Duration     // T2 − T1
	FailoverDowntime time.Duration     // T2 → first write accepted by the promoted replica
	Demotions        uint64            // deposed-leader resets on the rejoined daemon; 0 is the no-divergence case
	Discarded        uint64            // entries the deposed leader dropped on rejoin
	Converged        int               // instances bit-identical between new leader and rejoined replica
}

// RunFailover executes the partition-torture scenario. It returns an
// error if promotion fails, the old leader demotes when it has nothing
// past the fence or fails to when it has, it fails to converge, or —
// the fencing contract — it accepts even one direct write after
// rejoining.
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
	if err := cfg.Config.Validate(); err != nil {
		return FailoverResult{}, err
	}
	leader, promoted := control(cfg.Addr), control(cfg.FollowerAddr)
	ids, err := createFleet(leader, cfg.Config)
	if err != nil {
		return FailoverResult{}, err
	}
	rc, lookupBatch, err := cfg.dataPlane()
	if err != nil {
		return FailoverResult{}, err
	}
	defer rc.Close()
	// The follower must have replicated the fleet before the partition,
	// or the promoted leader would be missing instances rather than
	// merely trailing epochs.
	if err := fleet.Poll(healthTimeout, func() error {
		for _, id := range ids {
			if _, err := promoted.Instance(id); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}); err != nil {
		return FailoverResult{}, fmt.Errorf("loadgen: follower %s never replicated the fleet within %v: %w",
			cfg.FollowerAddr, healthTimeout, err)
	}

	// Storm with two triggers: the worker that crosses partitionAt cuts
	// the follower off (T1), the one that crosses failoverKillAt kills
	// the leader (T2) and stops the run. Between the two, every
	// acknowledged write is divergence.
	partition := &trigger{after: partitionAt, fire: cfg.Partition}
	kill := &trigger{after: failoverKillAt, stop: true, fire: cfg.KillLeader}
	var res FailoverResult
	res.Storm, res.Acked = cfg.storm(rc, lookupBatch, ids, partition, kill)
	if err := partition.fired("partition"); err != nil {
		return res, err
	}
	if err := kill.fired("kill"); err != nil {
		return res, err
	}
	res.DivergenceWindow = kill.at.Sub(partition.at)

	// Heal and promote. The downtime clock runs from the kill until the
	// promoted replica accepts a write — promotion (retried while the
	// replica is still unreachable or draining) plus however long it
	// needs to notice its stream is dead and drain.
	if cfg.Heal != nil {
		if err := cfg.Heal(); err != nil {
			return res, fmt.Errorf("loadgen: heal hook: %v", err)
		}
	}
	var fence uint64 // seq of the promotion's term bump
	if err := fleet.Poll(healthTimeout, func() error {
		pr, err := promoted.Promote()
		res.Term, fence = pr.Term, pr.Seq
		return err
	}); err != nil {
		return res, fmt.Errorf("loadgen: promote %s: %w", cfg.FollowerAddr, err)
	}
	// An applied burst proves the write path open; so does one the state
	// machine rejected (the request got past the posture check). Anything
	// else — read-only above all — means not yet.
	if err := fleet.Poll(healthTimeout, func() error {
		_, err := promoted.EventBatch(ids[0], []fleet.Event{{Kind: fleet.EventRepair, Node: 0}})
		if rejectedByStateMachine(err) {
			return nil
		}
		return err
	}); err != nil {
		return res, fmt.Errorf("loadgen: promoted replica %s not writable: %w", cfg.FollowerAddr, err)
	}
	res.FailoverDowntime = time.Since(kill.at)

	// Advance the new leader past the promotion point so the rejoined
	// deposed leader replicates post-failover history, not just the
	// checkpoint. They go over the control plane, so the scenario needs
	// no RPC address for the follower, and their answers go unchecked:
	// the convergence check below compares whatever history they made.
	_, nHost := cfg.Spec.Sizes()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	for i := 0; i < 32; i++ {
		promoted.EventBatch(ids[rng.Intn(len(ids))], makeEvents(rng, nHost, cfg.Scenario.Batch))
	}

	if cfg.RestartOld == nil {
		return res, nil
	}
	oldAddr, err := cfg.RestartOld()
	if err != nil {
		return res, fmt.Errorf("loadgen: restart-old hook: %v", err)
	}
	deposed := leader
	if oldAddr != "" {
		deposed = control(oldAddr)
	}
	if err := AwaitHealthy(deposed.Base, healthTimeout); err != nil {
		return res, err
	}
	// Self-healing contract: once its replication loop has made its first
	// decision, the rejoined daemon has demoted (observed the higher term,
	// discarded its unreplicated tail: /v1/stats reports a deposed-leader
	// reset) exactly if it recovered anything past the fence — the
	// comparison its own handshake makes ...
	var ds fleet.StatsResponse
	if err := fleet.Poll(healthTimeout, func() (err error) {
		if ds, err = deposed.Stats(); err != nil {
			return err
		}
		if ds.Follower == nil || ds.Follower.Demotions+ds.Follower.Reconnects == 0 {
			return errors.New("its replication loop has not reached the new leader")
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("loadgen: rejoined leader %s: %w", deposed.Base, err)
	}
	res.Demotions, res.Discarded = ds.Follower.Demotions, ds.Follower.Discarded
	var recovered uint64
	if rec := ds.Journal.Recovery; rec != nil {
		recovered = rec.NextSeq
	}
	if divergent := recovered > fence; divergent != (res.Demotions > 0) {
		return res, fmt.Errorf("loadgen: rejoined leader %s recovered to next seq %d against the fence at seq %d and demoted %d times (divergent: %v)",
			deposed.Base, recovered, fence, res.Demotions, divergent)
	}
	// ... converge bit-identically with the promoted leader ...
	fv, err := VerifyFollower(cfg.FollowerAddr, deposed.Base, ids, healthTimeout)
	if err != nil {
		return res, err
	}
	// ... and refuse direct writes: any acceptance is a stale-term write,
	// the split-brain failure the term plane exists to prevent. (Asked
	// after convergence: a replica that has just reset holds no instance
	// to refuse the write for.)
	_, err = deposed.EventBatch(ids[0], []fleet.Event{{Kind: fleet.EventFault, Node: nHost - 1}})
	if !errors.Is(err, fleet.ErrReadOnly) {
		return res, fmt.Errorf("loadgen: deposed leader %s answered a direct write with %v, want the read-only refusal — stale-term write accepted",
			deposed.Base, err)
	}
	res.Converged = fv.Instances
	return res, nil
}
