package loadgen

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ftnet/internal/fleet"
)

// TestRunRestartInProcess exercises the restart scenario without a
// child process: the "daemon" is an httptest server over a manager
// booted the daemon's way (fleet.NewDaemon, fsync always), the kill
// abandons the manager and its writer without draining anything (every
// acknowledged record is already on disk — exactly the SIGKILL
// contract), and the restart boots again from the same journal file.
func TestRunRestartInProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")

	var srv *httptest.Server
	boot := func() (string, error) {
		d, err := fleet.NewDaemon(fleet.DaemonConfig{Journal: path})
		if err != nil {
			return "", err
		}
		srv = httptest.NewServer(fleet.NewHTTPHandler(d.Manager()))
		return srv.URL, nil
	}
	addr, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	res, err := RunRestart(RestartConfig{
		Config: Config{
			Addr:      addr,
			Instances: 3,
			Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 4},
			Workers:   4,
			Requests:  400,
			Scenario:  Scenario{Batch: 4},
			Seed:      7,
		},
		Kill: func() error {
			srv.Close() // in-flight handlers drain; the journal writer is simply abandoned
			return nil
		},
		Start: boot,
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
