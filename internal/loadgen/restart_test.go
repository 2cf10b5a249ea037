package loadgen

import (
	"path/filepath"
	"testing"

	"ftnet/internal/fleet"
)

// TestRunRestartInProcess exercises the restart scenario without a
// child process: the daemon is booted the daemon's way (fleet.NewDaemon,
// fsync always) and storms over its RPC plane, the kill abandons the
// manager and its writer without draining anything (every acknowledged
// record is already on disk — exactly the SIGKILL contract), and the
// restart boots again from the same journal file.
func TestRunRestartInProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")

	first, err := bootCrashable(t, fleet.DaemonConfig{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRestart(RestartConfig{
		Config: Config{
			Addr:      first.url,
			RPCAddr:   first.rpcAddr,
			Instances: 3,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  400,
			Scenario:  Scenario{Batch: 4},
			Seed:      7,
		},
		Kill: first.kill,
		Start: func() (string, error) {
			again, err := bootCrashable(t, fleet.DaemonConfig{Journal: path})
			if err != nil {
				return "", err
			}
			return again.url, nil
		},
	})
	if err != nil {
		t.Fatalf("RunRestart: %v (acked %v, recovered %v)", err, res.Acked, res.Recovered)
	}
	if res.Verified != 3 {
		t.Errorf("verified %d/3 instances", res.Verified)
	}
	if res.Storm.Batches == 0 {
		t.Error("storm acknowledged no transitions before the kill")
	}
	anyAcked := false
	for id, e := range res.Acked {
		if e > 0 {
			anyAcked = true
		}
		if res.Recovered[id] < e {
			t.Errorf("%s: recovered epoch %d below acked %d", id, res.Recovered[id], e)
		}
	}
	if !anyAcked {
		t.Error("no instance acknowledged an epoch before the kill")
	}
}

// TestRunRestartNeedsHooks pins the configuration contract.
func TestRunRestartNeedsHooks(t *testing.T) {
	if _, err := RunRestart(RestartConfig{}); err == nil {
		t.Error("RunRestart accepted a config without Kill/Start hooks")
	}
}
