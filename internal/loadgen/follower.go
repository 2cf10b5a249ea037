package loadgen

import (
	"fmt"
	"sync"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/ft"
)

// The replication probe: after a load run against a leader, verify
// that a follower daemon converged — for every driven instance, the
// follower reaches the leader's epoch and fault set, and both serve the
// phi slice a fresh mapping over that fault set gives, so the two are
// bit-identical and a pair that is wrong alike fails too. ftload wires
// it to -follower; the CI replication job runs a write storm against
// the leader and then holds the follower to this check.

// FollowerVerify reports one convergence check.
type FollowerVerify struct {
	Instances int           // instances compared
	Waited    time.Duration // time until the follower caught up
}

// VerifyFollower polls followerAddr until every instance in ids has
// caught up with leaderAddr (same or later epoch), then compares fault
// sets and holds both copies to verifyInstance under the leader's spec
// and epoch. The leader must be quiescent
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
		// Equal fault sets and both slices fresh over them: bit-identical.
		for _, api := range []fleet.Client{leaderAPI, followerAPI} {
			if _, err := verifyInstance(api, leader.Spec, id, leader.Epoch, true); err != nil {
				return res, err
			}
		}
		res.Instances++
	}
	res.Waited = time.Since(start)
	return res, nil
}

// verifyInstance holds the copy of id that the daemon serves to what its
// clients were acknowledged and to the paper: it is served under spec,
// the spec the storm created it with; its epoch covers the acked
// watermark — and, when strict (every response of the storm was seen),
// equals it: nothing lost, nothing applied twice — and its full phi
// slice is bit-identical to a fresh ft.NewMapping over the fault set it
// reports, at sizes derived from spec here, through psi from
// ft.NewSEViaDB for shuffle-exchange. The info comes back whenever the
// daemon produced it, so a caller can report the epoch it saw alongside
// the error.
func verifyInstance(api fleet.Client, spec fleet.Spec, id string, acked uint64, strict bool) (fleet.InstanceInfo, error) {
	addr := api.Base
	info, err := api.Instance(id)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s not served by %s: %w", id, addr, err)
	}
	switch {
	case info.Spec != spec:
		return info, fmt.Errorf("loadgen: %s on %s served as %+v, created as %+v", id, addr, info.Spec, spec)
	case info.Epoch < acked:
		return info, fmt.Errorf("loadgen: %s on %s at epoch %d, below acknowledged epoch %d — an acknowledged transition was lost",
			id, addr, info.Epoch, acked)
	case strict && info.Epoch != acked:
		return info, fmt.Errorf("loadgen: %s on %s at epoch %d, acknowledged watermark is %d — a transition was applied twice",
			id, addr, info.Epoch, acked)
	}
	want, err := freshPhi(spec, info.Faults)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s on %s holds an invalid fault set %v for %+v: %v", id, addr, info.Faults, spec, err)
	}
	phi, err := api.Phi(id)
	if err != nil {
		return info, fmt.Errorf("loadgen: %s phi on %s: %w", id, addr, err)
	}
	if len(phi) != len(want) {
		return info, fmt.Errorf("loadgen: %s phi slice has %d entries, want %d", id, len(phi), len(want))
	}
	for x, got := range phi {
		if got != want[x] {
			return info, fmt.Errorf("loadgen: %s phi(%d) = %d on %s, recomputation says %d — mapping corrupted",
				id, x, got, addr, want[x])
		}
	}
	return info, nil
}

// psis caches psi by ft.SEParams: ft.NewSEViaDB builds the host graph
// too, and a run verifies every instance under one spec.
var psis sync.Map

// freshPhi is the phi slice a fresh mapping over faults gives spec's
// targets, at sizes derived from spec: ft.NewMapping's for de Bruijn,
// composed with psi by ft.SEMapViaDB for shuffle-exchange.
func freshPhi(spec fleet.Spec, faults []int) ([]int, error) {
	if spec.Kind == fleet.KindShuffle {
		p := ft.SEParams{H: spec.H, K: spec.K}
		psi, ok := psis.Load(p)
		if !ok {
			_, fresh, err := ft.NewSEViaDB(p)
			if err != nil {
				return nil, err
			}
			psi, _ = psis.LoadOrStore(p, fresh)
		}
		return ft.SEMapViaDB(p, psi.([]int), faults)
	}
	nTarget, nHost := spec.Sizes()
	m, err := ft.NewMapping(nTarget, nHost, faults)
	if err != nil {
		return nil, err
	}
	return m.PhiSlice(), nil
}
