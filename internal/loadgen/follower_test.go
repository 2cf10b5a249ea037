package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ftnet/internal/fleet"
)

// TestVerifyFollowerConverges runs a real leader + follower pair in
// process, drives a write-storm through the leader's HTTP API, and
// holds the pair to VerifyFollower's contract — the same check the CI
// replication job runs against separate daemons.
func TestVerifyFollowerConverges(t *testing.T) {
	leaderMgr := fleet.NewManager(fleet.Options{})
	defer leaderMgr.Close()
	leader := httptest.NewServer(fleet.NewHTTPHandler(leaderMgr))
	t.Cleanup(leader.Close)

	followerMgr := fleet.NewManager(fleet.Options{})
	defer followerMgr.Close()
	follower := httptest.NewServer(fleet.NewHTTPHandler(followerMgr))
	t.Cleanup(follower.Close)

	f, err := fleet.NewFollower(followerMgr, leader.URL, fleet.FollowerOptions{
		Heartbeat: 50 * time.Millisecond,
		Backoff:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go f.Run(ctx)

	cfg := Config{
		Addr:      leader.URL,
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

	fv, err := VerifyFollower(leader.URL, follower.URL, cfg.InstanceIDs(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Instances != cfg.Instances {
		t.Fatalf("verified %d instances, want %d", fv.Instances, cfg.Instances)
	}

	// A wrong follower is caught: point the check at the leader's ids
	// on a daemon that never replicated them.
	empty := fleet.NewManager(fleet.Options{})
	defer empty.Close()
	blank := httptest.NewServer(fleet.NewHTTPHandler(empty))
	t.Cleanup(blank.Close)
	if _, err := VerifyFollower(leader.URL, blank.URL, cfg.InstanceIDs(), 200*time.Millisecond); err == nil {
		t.Fatal("VerifyFollower accepted a daemon with no replica state")
	}
}
