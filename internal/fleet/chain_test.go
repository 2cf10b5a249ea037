package fleet

import (
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// The follower-chain topology: leader -> mid -> leaf, each tier
// replicating over the watch plane from the one above. ROADMAP item 1
// flags chains as the untested replication shape — a follower is also
// a watch server, so its own appliance must be re-observable
// downstream with the same gap-free seq and bit-identical state.

// TestFollowerChainConvergesAtDepthTwo drives a depth-2 chain under a
// leader-side storm and requires the leaf — which never talks to the
// leader — to converge bit-identically, with live lag metrics.
func TestFollowerChainConvergesAtDepthTwo(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	srvLeader := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(srvLeader.Close)

	mt := bootDaemon(t, DaemonConfig{Follow: srvLeader.URL})
	midURL, _ := runDaemon(t, mt, nil, Plane{})
	mid := mt.mgr

	leaf, fLeaf := startFollower(t, midURL)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}
	for _, id := range []string{"chain-0", "chain-1", "chain-2"} {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		toggleStorm(t, leader, id, 8)
	}
	waitConverged(t, leader, mid, 10*time.Second)
	waitConverged(t, leader, leaf, 10*time.Second)
	checkFleet(t, leaf, stateOf(t, leader))

	// Lag metrics at depth 2: the leaf measures its stream against the
	// MID tier (its leader), and its entry-age histogram must have seen
	// every live entry that trickled down both hops.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := fLeaf.Stats()
		if st.LeaderSeq >= mid.pipe.log.LastSeq() && st.LagSeqs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("depth-2 lag never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	e := leaf.Metrics().Export()
	if v, ok := e.FindGauge("ftnet_replication_lag_seqs"); !ok || v != 0 {
		t.Errorf("leaf lag gauge = %d (ok=%v), want 0", v, ok)
	}
	if h, ok := e.Find("ftnet_replication_entry_age_seconds", ""); !ok || h.Count == 0 {
		t.Errorf("leaf entry-age histogram empty at depth 2: %+v (ok=%v)", h, ok)
	} else if time.Duration(h.MaxNS) > time.Minute {
		t.Errorf("leaf entry age max %v is implausible for a local chain", time.Duration(h.MaxNS))
	}
}

// severable is a listener whose sever cuts every connection it accepted
// at whatever byte it was carrying, as a SIGKILL of the process would.
type severable struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severable) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *severable) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestFollowerChainSurvivesMidChainKill kills the middle tier abruptly
// while the leader keeps committing, reboots it from its own journal
// on the same address, and requires the leaf to reconnect and converge
// bit-identically with the leader — the chain self-heals around a
// SIGKILL of its interior node.
func TestFollowerChainSurvivesMidChainKill(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	srvLeader := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(srvLeader.Close)

	mt := bootDaemon(t, DaemonConfig{Follow: srvLeader.URL})
	midLn := &severable{Listener: listen(t, "127.0.0.1:0")}
	midURL, stopMid := runDaemon(t, mt, midLn, Plane{})

	leaf, fLeaf := startFollower(t, midURL)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}
	for _, id := range []string{"kill-0", "kill-1"} {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		toggleStorm(t, leader, id, 4)
	}
	waitConverged(t, leader, leaf, 10*time.Second)

	// Snapshot the mid tier's durable state and kill it: the leaf's
	// stream severed mid-chain, at no record boundary, then the
	// replication loop gone (the drain that follows finds no stream left
	// to end cleanly, and the reboot starts from the snapshot).
	image := journalImage(t, mt.mgr)
	midLn.sever()
	stopMid()

	// The leader keeps committing while the interior of the chain is
	// down; nothing below it can see these entries yet.
	toggleStorm(t, leader, "kill-0", 6)
	toggleStorm(t, leader, "kill-1", 6)

	// Reboot the mid tier from its journal on the same address. Its
	// recovery starts where the kill left it; its follower re-streams
	// the missed suffix from the leader, and the leaf reconnects to the
	// same URL it was always pointed at.
	mid2 := rebootDaemon(t, image, DaemonConfig{Follow: srvLeader.URL})
	runDaemon(t, mid2, listen(t, midLn.Addr().String()), Plane{})

	waitConverged(t, leader, mid2.mgr, 15*time.Second)
	waitConverged(t, leader, leaf, 15*time.Second)
	checkFleet(t, leaf, stateOf(t, leader))
	if st := fLeaf.Stats(); st.Reconnects == 0 {
		t.Errorf("leaf never reconnected through the mid-chain kill: %+v", st)
	}
}
