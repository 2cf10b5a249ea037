package loadgen

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"testing"

	"ftnet/internal/fleet"
)

// TestRunFailoverInProcess exercises the partition-torture scenario
// without child processes. The leader is booted the daemon's way
// (fleet.NewDaemon, fsync always) and stormed over its RPC plane; the
// kill stops its planes and abandons the manager undrained — the
// SIGKILL contract. The follower runs as a whole daemon whose connections go
// through one dialer the partition cuts. Promotion travels POST
// /v1/promote, and the deposed leader reboots from the same journal file
// as a follower of the new leader. The scenario's own acceptance checks
// — demotion observed, tail discarded, 403 on direct writes (zero
// stale-term writes), bit-identical convergence — all run inside
// RunFailover.
func TestRunFailoverInProcess(t *testing.T) {
	dir := t.TempDir()
	leaderWAL := filepath.Join(dir, "leader.wal")

	leader, err := bootCrashable(t, fleet.DaemonConfig{Journal: leaderWAL})
	if err != nil {
		t.Fatal(err)
	}
	partition, cut := context.WithCancel(context.Background())
	defer cut()
	opts := fastFollower
	opts.Client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if err := partition.Err(); err != nil {
				return nil, err
			}
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				context.AfterFunc(partition, func() { c.Close() })
			}
			return c, err
		},
	}}
	_, followerURL, _, _ := startDaemon(t, fleet.DaemonConfig{
		Journal: filepath.Join(dir, "follower.wal"), Follow: leader.url, Follower: opts,
	})

	res, err := RunFailover(FailoverConfig{
		Config: Config{
			Addr:      leader.url,
			RPCAddr:   leader.rpcAddr,
			Instances: 3,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  600,
			Scenario:  Scenario{Batch: 4},
			Seed:      11,
		},
		FollowerAddr: followerURL,
		Partition: func() error {
			cut() // the watch stream dies; the leader keeps serving
			return nil
		},
		KillLeader: leader.kill,
		RestartOld: func() (string, error) {
			_, url, _, _ := startDaemon(t, fleet.DaemonConfig{Journal: leaderWAL, Follow: followerURL, Follower: fastFollower})
			return url, nil
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
