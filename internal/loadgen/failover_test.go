package loadgen

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
)

// bootDaemon assembles the in-process analogue of one ftnetd: a
// journaled manager, optionally a follower loop, and an httptest
// server over the real handler.
func bootDaemon(t *testing.T, path, followURL string) (*fleet.Manager, *fleet.Follower, *httptest.Server, context.CancelFunc) {
	t.Helper()
	mgr := fleet.NewManager(fleet.Options{})
	if _, err := mgr.RecoverFile(path); err != nil {
		t.Fatal(err)
	}
	jw, err := journal.Create(path, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetJournal(jw)
	var f *fleet.Follower
	ctx, cancel := context.WithCancel(context.Background())
	if followURL != "" {
		f, err = fleet.NewFollower(mgr, followURL, fleet.FollowerOptions{
			Heartbeat:    50 * time.Millisecond,
			StallTimeout: 2 * time.Second,
			Backoff:      20 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		go f.Run(ctx)
	}
	srv := httptest.NewServer(fleet.NewHTTPHandler(mgr))
	t.Cleanup(func() { cancel(); srv.Close() })
	return mgr, f, srv, cancel
}

// TestRunFailoverInProcess exercises the partition-torture scenario
// without child processes: the partition cancels the follower's
// replication context, the kill closes the leader's server and
// abandons its manager (SyncAlways — the SIGKILL contract), promotion
// travels POST /v1/promote, and the deposed leader reboots from the
// same journal file as a follower of the new leader. The scenario's
// own acceptance checks — demotion observed, tail discarded, 403 on
// direct writes (zero stale-term writes), bit-identical convergence —
// all run inside RunFailover.
func TestRunFailoverInProcess(t *testing.T) {
	dir := t.TempDir()
	leaderWAL := filepath.Join(dir, "leader.wal")
	followerWAL := filepath.Join(dir, "follower.wal")

	_, _, leaderSrv, _ := bootDaemon(t, leaderWAL, "")
	_, _, followerSrv, followerCancel := bootDaemon(t, followerWAL, leaderSrv.URL)

	var rejoinSrv *httptest.Server
	res, err := RunFailover(FailoverConfig{
		Config: Config{
			Addr:      leaderSrv.URL,
			Instances: 3,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  600,
			Scenario:  Scenario{Batch: 4},
			Seed:      11,
		},
		FollowerAddr: followerSrv.URL,
		Partition: func() error {
			followerCancel() // the watch stream dies; the leader keeps serving
			return nil
		},
		KillLeader: func() error {
			leaderSrv.Close() // in-flight handlers drain; manager and writer abandoned
			return nil
		},
		RestartOld: func() (string, error) {
			_, _, rejoinSrv, _ = bootDaemon(t, leaderWAL, followerSrv.URL)
			return rejoinSrv.URL, nil
		},
	})
	if err != nil {
		t.Fatalf("RunFailover: %v (result %+v)", err, res)
	}
	if res.Term == 0 {
		t.Error("promotion reported term 0")
	}
	if res.DivergenceWindow <= 0 {
		t.Errorf("divergence window %v, want > 0", res.DivergenceWindow)
	}
	if res.FailoverDowntime <= 0 {
		t.Errorf("failover downtime %v, want > 0", res.FailoverDowntime)
	}
	if res.Demotions != 1 {
		t.Errorf("demotions = %d, want 1", res.Demotions)
	}
	if res.Discarded == 0 {
		t.Error("no discarded entries: the deposed leader had no unreplicated tail to drop")
	}
	if res.Converged != 3 {
		t.Errorf("converged %d/3 instances", res.Converged)
	}
	if res.Storm.Batches == 0 {
		t.Error("storm acknowledged no transitions")
	}

	// The artifact families CI gates on.
	art := BuildServiceArtifact("partition-torture", nil, nil, nil)
	AppendFailover(&art, res)
	families := map[string]bool{}
	for _, b := range art.Benchmarks {
		families[b.Family] = true
	}
	if !families["failover_downtime"] || !families["divergence_window"] {
		t.Errorf("artifact families %v missing failover_downtime/divergence_window", families)
	}
}

// TestRunFailoverNeedsHooks pins the configuration contract.
func TestRunFailoverNeedsHooks(t *testing.T) {
	if _, err := RunFailover(FailoverConfig{}); err == nil {
		t.Error("RunFailover accepted a config without hooks")
	}
}
