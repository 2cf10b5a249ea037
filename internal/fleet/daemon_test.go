package fleet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftnet/internal/commit"
	sharding "ftnet/internal/shard"
)

// bootDaemon boots cfg the way ftnetd does (NewDaemon), at test speed:
// journaled in a fresh directory unless cfg names its journal, fsync on
// a 1ms interval unless cfg names its policy, a follower on short
// heartbeats and backoffs.
func bootDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(t.TempDir(), "epochs.wal")
	}
	if cfg.Fsync == "" {
		cfg.Fsync, cfg.FsyncInterval = "interval", time.Millisecond
	}
	cfg.Follower = FollowerOptions{Heartbeat: 50 * time.Millisecond, StallTimeout: 2 * time.Second, Backoff: 20 * time.Millisecond}
	cfg.Logf = t.Logf
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(func() { d.mgr.Close() })
	return d
}

// runDaemon runs d, its JSON API on api (a loopback port when nil) and
// rpc beside it, until the test ends or stop (the drain SIGTERM starts)
// returns; it returns d's base URL.
func runDaemon(t *testing.T, d *Daemon, api net.Listener, rpc Plane) (url string, stop func()) {
	t.Helper()
	if api == nil {
		api = listen(t, "127.0.0.1:0")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := d.Run(ctx, api, rpc); err != nil {
			t.Errorf("daemon: %v", err)
		}
	}()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return "http://" + api.Addr().String(), stop
}

// listen binds addr, waiting out a just-closed listener's port.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rebootDaemon boots cfg over a copy of a journal image: a daemon
// restarting on its own data directory.
func rebootDaemon(t *testing.T, image []byte, cfg DaemonConfig) *Daemon {
	t.Helper()
	cfg.Journal = filepath.Join(t.TempDir(), "epochs.wal")
	if err := os.WriteFile(cfg.Journal, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return bootDaemon(t, cfg)
}

// startFollower boots and runs a journaled replica of the leader at
// leaderURL, returning its manager and replication loop.
func startFollower(t *testing.T, leaderURL string) (*Manager, *Follower) {
	t.Helper()
	d := bootDaemon(t, DaemonConfig{Follow: leaderURL})
	runDaemon(t, d, nil, Plane{})
	return d.mgr, d.follower
}

// drainProbe is a plane's server that serves nothing and runs itself at
// Shutdown.
type drainProbe func()

func (p drainProbe) Serve(ln net.Listener) error    { return ln.Close() }
func (p drainProbe) Shutdown(context.Context) error { p(); return nil }

// TestDaemonDrainsInOrder pins the shutdown order that loses nothing
// acked. When the RPC plane drains, the watch streams are still open
// and a write still commits: RPC comes first. The open watch stream
// then ends at a clean EOF and the drain finishes well inside its
// timeout: the streams were ended before the HTTP drain waited on them.
// And the journal is closed last: the write the RPC drain acked is on
// disk, and nothing commits once Run has returned.
func TestDaemonDrainsInOrder(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	var sub *commit.Sub
	subEnded := func() bool {
		for {
			select {
			case _, ok := <-sub.C:
				if !ok {
					return true
				}
			default:
				return false
			}
		}
	}
	var atRPCDrain []string
	d := bootDaemon(t, DaemonConfig{})
	url, stop := runDaemon(t, d, nil, Plane{Listener: listen(t, "127.0.0.1:0"), Server: drainProbe(func() {
		if subEnded() {
			atRPCDrain = append(atRPCDrain, "the subscriptions had already ended")
		}
		if _, err := d.mgr.Create("late", spec); err != nil {
			atRPCDrain = append(atRPCDrain, "a write was refused: "+err.Error())
		}
	})})
	if _, err := d.mgr.Create("early", spec); err != nil {
		t.Fatal(err)
	}
	sub, err := d.mgr.Subscribe(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/v1/watch?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	if _, err := body.ReadString('\n'); err != nil {
		t.Fatalf("first watch entry: %v", err)
	}
	ended := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, body)
		ended <- err
	}()

	start := time.Now()
	stop()
	if took := time.Since(start); took > drainTimeout*3/4 {
		t.Errorf("drain took %v: the HTTP drain waited on a watch stream", took)
	}
	if err := <-ended; err != nil {
		t.Errorf("watch stream ended with %v, want a clean EOF", err)
	}
	for _, p := range atRPCDrain {
		t.Errorf("when the RPC plane drained, %s", p)
	}
	if _, err := d.mgr.Create("after", spec); err == nil {
		t.Error("a write committed after Run returned: the journal is still open")
	}
	m := NewManager(Options{})
	if _, err := m.RecoverFile(d.cfg.Journal); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("late"); !ok {
		t.Error("the write acked during the RPC drain is not in the journal")
	}
}

// TestDaemonBootsMidHandoff boots a source daemon from a journal cut
// between a handoff's commit on the owner and the source's OpDelete. The
// copy it recovers is served until the ring audit Run starts asks the
// owner, which confirms the handoff, and the copy is retired: the id
// then redirects to the owner, which serves it at the handed-off epoch.
func TestDaemonBootsMidHandoff(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	id := idOwnedBy(t, "b")
	lnA, lnB := listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	peers := map[string]string{"a": "http://" + lnA.Addr().String(), "b": "http://" + lnB.Addr().String()}

	// The source's life before the crash: the instance, one transition,
	// the handoff committed on b, and no OpDelete.
	src := bootDaemon(t, DaemonConfig{}).mgr
	if _, err := src.Create(id, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Event(id, Event{Kind: EventFault, Node: 3}); err != nil {
		t.Fatal(err)
	}
	b := bootDaemon(t, DaemonConfig{Self: "b", Peers: peers})
	in, _ := src.Get(id)
	mig := sharding.Migration{ID: id, Token: 1, Record: checkpointRecord(id, spec, in.snap.Load())}
	if err := b.mgr.stageMigration(mig); err != nil {
		t.Fatal(err)
	}
	if _, err := b.mgr.commitMigration(mig); err != nil {
		t.Fatal(err)
	}
	a := rebootDaemon(t, journalImage(t, src), DaemonConfig{Self: "a", Peers: peers})
	if _, err := a.mgr.Lookup(id, 0); err != nil {
		t.Fatalf("the recovered copy is not served before the audit: %v", err)
	}

	runDaemon(t, b, lnB, Plane{})
	runDaemon(t, a, lnA, Plane{})
	if err := Poll(10*time.Second, func() error {
		_, err := a.mgr.Lookup(id, 0)
		if WrongShardOwner(err) != peers["b"] {
			return errors.New("still served here")
		}
		return nil
	}); err != nil {
		t.Fatalf("the audit never retired the handed-off copy: %v", err)
	}
	if got := mustGet(t, b.mgr, id).Snapshot().Epoch(); got != 1 {
		t.Errorf("owner holds epoch %d, want the handed-off 1", got)
	}
}

// TestDaemonCompacts drives the compaction loop Run starts: a replica
// compacts its journal on its period.
func TestDaemonCompacts(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{})
	leaderURL, _ := runDaemon(t, leader, nil, Plane{})
	if _, err := leader.mgr.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	d := bootDaemon(t, DaemonConfig{Follow: leaderURL, CompactEvery: 5 * time.Millisecond})
	runDaemon(t, d, nil, Plane{})
	waitConverged(t, leader.mgr, d.mgr, 10*time.Second)
	if err := Poll(10*time.Second, func() error {
		if d.mgr.Stats().Commit.Compactions == 0 {
			return errors.New("no compaction yet")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDrainsPastABlackholedOwner boots a source holding a copy the
// ring gives to an owner that accepts the ring audit's probe and never
// answers it. The drain ends the probe with the loop: stop returns in a
// fraction of the probe's own timeout, and the journal is closed.
func TestDaemonDrainsPastABlackholedOwner(t *testing.T) {
	hole := listen(t, "127.0.0.1:0")
	t.Cleanup(func() { hole.Close() })
	probed := make(chan net.Conn, 1)
	go func() {
		if c, err := hole.Accept(); err == nil {
			probed <- c
		}
	}()
	id := idOwnedBy(t, "b")
	src := bootDaemon(t, DaemonConfig{}).mgr
	if _, err := src.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	lnA := listen(t, "127.0.0.1:0")
	peers := map[string]string{"a": "http://" + lnA.Addr().String(), "b": "http://" + hole.Addr().String()}
	a := rebootDaemon(t, journalImage(t, src), DaemonConfig{Self: "a", Peers: peers})
	_, stop := runDaemon(t, a, lnA, Plane{})
	select {
	case c := <-probed:
		defer c.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("the ring audit never probed the owner")
	}

	start := time.Now()
	stop()
	if took := time.Since(start); took > probeTimeout/5 {
		t.Errorf("drain took %v behind a probe to a blackholed owner (probe timeout %v)", took, probeTimeout)
	}
	if _, err := a.mgr.Lookup(id, 0); err != nil {
		t.Errorf("the unresolved copy was not kept: %v", err)
	}
	if _, err := a.mgr.Event(id, Event{Kind: EventFault, Node: 3}); err == nil {
		t.Error("a write committed after Run returned: the journal is still open")
	}
}

// TestDaemonStopsWhenAPlaneFails: a plane whose Serve fails stops the
// daemon as a signal would, drained, and Run returns the failure.
func TestDaemonStopsWhenAPlaneFails(t *testing.T) {
	d := bootDaemon(t, DaemonConfig{})
	api := listen(t, "127.0.0.1:0")
	api.Close()
	if err := d.Run(context.Background(), api, Plane{}); err == nil {
		t.Error("Run returned nil over a failed plane")
	}
	if _, err := d.mgr.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err == nil {
		t.Error("a write committed after Run returned: the journal is still open")
	}
}
