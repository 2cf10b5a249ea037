package loadgen

import (
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
)

// TestVerifyFollowerConverges runs a real leader + follower pair in
// process, drives a write-storm through the leader's RPC plane, and
// holds the pair to VerifyFollower's contract — the same check the CI
// replication job runs against separate daemons.
func TestVerifyFollowerConverges(t *testing.T) {
	lead := fleettest.Start(t, fleet.DaemonConfig{}, wirePlane)
	leader, leaderRPC := lead.URL, lead.RPCAddr
	follower := fleettest.Start(t, fleet.DaemonConfig{Follow: leader, Follower: fastFollower}, nil).URL

	cfg := Config{
		Addr:      leader,
		RPCAddr:   leaderRPC,
		Instances: 2,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 5, K: 4},
		Workers:   4,
		Requests:  400,
		Scenario:  WriteStorm,
		Seed:      7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d load errors", res.Errors)
	}

	fv, err := VerifyFollower(leader, follower, cfg.InstanceIDs(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Instances != cfg.Instances {
		t.Fatalf("verified %d instances, want %d", fv.Instances, cfg.Instances)
	}

	// A wrong follower is caught: point the check at the leader's ids
	// on a daemon that never replicated them.
	blank := fleettest.Start(t, fleet.DaemonConfig{}, nil).URL
	if _, err := VerifyFollower(leader, blank, cfg.InstanceIDs(), 200*time.Millisecond); err == nil {
		t.Fatal("VerifyFollower accepted a daemon with no replica state")
	}
}
