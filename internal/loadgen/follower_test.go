package loadgen

import (
	"testing"
	"time"

	"ftnet/internal/fleet"
)

// TestVerifyFollowerConverges runs a real leader + follower pair in
// process, drives a write-storm through the leader's HTTP API, and
// holds the pair to VerifyFollower's contract — the same check the CI
// replication job runs against separate daemons.
func TestVerifyFollowerConverges(t *testing.T) {
	_, leader, _, _ := startDaemon(t, fleet.DaemonConfig{})
	_, follower, _, _ := startDaemon(t, fleet.DaemonConfig{Follow: leader, Follower: fastFollower})

	cfg := Config{
		Addr:      leader,
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
	_, blank, _, _ := startDaemon(t, fleet.DaemonConfig{})
	if _, err := VerifyFollower(leader, blank, cfg.InstanceIDs(), 200*time.Millisecond); err == nil {
		t.Fatal("VerifyFollower accepted a daemon with no replica state")
	}
}
