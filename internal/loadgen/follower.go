package loadgen

import (
	"fmt"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/ft"
)

// The replication probe: after a load run against a leader, verify
// that a follower daemon converged — for every driven instance, the
// follower reaches at least the leader's epoch and serves a phi slice
// bit-identical to the leader's (both also re-checked against the
// paper's contract by the instance endpoints themselves). ftload wires
// it to -follower; the CI replication job runs a write storm against
// the leader and then holds the follower to this check.

// FollowerVerify reports one convergence check.
type FollowerVerify struct {
	Instances int           // instances compared
	Waited    time.Duration // time until the follower caught up
}

// VerifyFollower polls followerAddr until every instance in ids has
// caught up with leaderAddr (same or later epoch), then compares fault
// sets and full phi slices bit for bit. The leader must be quiescent
// (the load run has finished); timeout bounds the catch-up wait.
func VerifyFollower(leaderAddr, followerAddr string, ids []string, timeout time.Duration) (FollowerVerify, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	leaderAPI, followerAPI := control(leaderAddr), control(followerAddr)
	start := time.Now()
	deadline := start.Add(timeout)
	var res FollowerVerify
	for _, id := range ids {
		leader, err := leaderAPI.Instance(id)
		if err != nil {
			return res, fmt.Errorf("loadgen: leader %s: %w", id, err)
		}
		// Wait for the follower to reach the leader's epoch.
		var follower fleet.InstanceInfo
		if err := fleet.Poll(time.Until(deadline), func() (err error) {
			follower, err = followerAPI.Instance(id)
			if err == nil && follower.Epoch < leader.Epoch {
				err = fmt.Errorf("stuck at epoch %d, leader at %d", follower.Epoch, leader.Epoch)
			}
			return err
		}); err != nil {
			return res, fmt.Errorf("loadgen: follower %s: %w", id, err)
		}
		if follower.Epoch != leader.Epoch {
			return res, fmt.Errorf("loadgen: follower %s at epoch %d, ahead of leader's %d",
				id, follower.Epoch, leader.Epoch)
		}
		if fmt.Sprint(follower.Faults) != fmt.Sprint(leader.Faults) {
			return res, fmt.Errorf("loadgen: %s fault sets diverge: leader %v, follower %v",
				id, leader.Faults, follower.Faults)
		}
		lphi, err := leaderAPI.Phi(id)
		if err != nil {
			return res, fmt.Errorf("loadgen: leader %s phi: %w", id, err)
		}
		fphi, err := followerAPI.Phi(id)
		if err != nil {
			return res, fmt.Errorf("loadgen: follower %s phi: %w", id, err)
		}
		if len(lphi) != len(fphi) {
			return res, fmt.Errorf("loadgen: %s phi lengths diverge: %d vs %d", id, len(lphi), len(fphi))
		}
		for x := range lphi {
			if lphi[x] != fphi[x] {
				return res, fmt.Errorf("loadgen: %s phi(%d): leader %d, follower %d — replica diverged",
					id, x, lphi[x], fphi[x])
			}
		}
		res.Instances++
	}
	res.Waited = time.Since(start)
	return res, nil
}

// verifyInstance holds the copy of id that the daemon serves to what its
// clients were acknowledged and to the paper: its epoch covers the acked
// watermark — and, when strict (every response of the storm was seen),
// equals it: nothing lost, nothing applied twice — and, for de Bruijn
// instances, where the client can recompute the map directly, the full
// phi slice is bit-identical to a fresh ft.NewMapping over the fault set
// it reports. The info comes back whenever the daemon produced it, so a
// caller can report the epoch it saw alongside the error.
func verifyInstance(api fleet.Client, id string, acked uint64, strict bool) (fleet.InstanceInfo, error) {
	addr := api.Base
	info, err := api.Instance(id)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s not served by %s: %w", id, addr, err)
	}
	switch {
	case info.Epoch < acked:
		return info, fmt.Errorf("loadgen: %s on %s at epoch %d, below acknowledged epoch %d — an acknowledged transition was lost",
			id, addr, info.Epoch, acked)
	case strict && info.Epoch != acked:
		return info, fmt.Errorf("loadgen: %s on %s at epoch %d, acknowledged watermark is %d — a transition was applied twice",
			id, addr, info.Epoch, acked)
	}
	if info.Spec.Kind != fleet.KindDeBruijn {
		return info, nil
	}
	want, err := ft.NewMapping(info.NTarget, info.NHost, info.Faults)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s on %s holds an invalid fault set %v: %v", id, addr, info.Faults, err)
	}
	phi, err := api.Phi(id)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s phi on %s: %w", id, addr, err)
	}
	if len(phi) != info.NTarget {
		return info, fmt.Errorf("loadgen: %s phi slice has %d entries, want %d", id, len(phi), info.NTarget)
	}
	for x, got := range phi {
		if got != want.Phi(x) {
			return info, fmt.Errorf("loadgen: %s phi(%d) = %d on %s, recomputation says %d — mapping corrupted",
				id, x, got, addr, want.Phi(x))
		}
	}
	return info, nil
}
