package fleettest_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/wire"
)

func wirePlane(m *fleet.Manager) fleettest.Server { return wire.NewServer(m, wire.ServerOptions{}) }

func client(n *fleettest.Node) fleet.Client {
	return fleet.Client{HTTP: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}, Base: n.URL}
}

// TestNodeCrashReboot crashes a journaled node after a write on each
// plane: neither plane answers, and reboots on the same addresses, over
// the journal file and over a copy with a torn tail, serve both writes.
func TestNodeCrashReboot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	n := fleettest.Start(t, fleet.DaemonConfig{Journal: path}, wirePlane)
	rc, err := wire.Dial(n.RPCAddr, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := client(n).Create("a", fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ApplyBatch("a", []fleet.Event{{Kind: fleet.EventFault, Node: 3}}); err != nil {
		t.Fatal(err)
	}

	n.Crash()
	if err := client(n).Healthz(); err == nil {
		t.Error("the JSON API answers after the crash")
	}
	if _, _, err := rc.Lookup("a", 0); err == nil {
		t.Error("the RPC plane answers after the crash")
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again := n.Reboot(t, nil)
	copied := again.Reboot(t, append(image, 0xde, 0xad))
	for _, node := range []*fleettest.Node{again, copied} {
		if info, err := client(node).Instance("a"); err != nil || info.Epoch != 1 || !reflect.DeepEqual(info.Faults, []int{3}) {
			t.Errorf("after a reboot: (%+v, %v), want epoch 1 with faults [3]", info, err)
		}
	}
	if copied.URL != n.URL || copied.RPCAddr != n.RPCAddr {
		t.Errorf("rebooted on %s and %s, want %s and %s", copied.URL, copied.RPCAddr, n.URL, n.RPCAddr)
	}
	if rec := copied.Manager().Stats().Journal.Recovery; rec == nil || !rec.Torn {
		t.Errorf("the boot over the torn copy recovered %+v", rec)
	}
}

// TestClusterDrains boots a two-member ring, each member on the ring
// over both URLs, and drains both.
func TestClusterDrains(t *testing.T) {
	nodes := fleettest.Cluster(t, wirePlane, "a", "b")
	urls, _ := fleettest.Addrs(nodes)
	for name, n := range nodes {
		var ring struct {
			Self  string
			Peers map[string]string
		}
		resp, err := http.Get(n.URL + "/v1/ring")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&ring)
			resp.Body.Close()
		}
		if err != nil || ring.Self != name || !reflect.DeepEqual(ring.Peers, urls) {
			t.Fatalf("%s booted on ring %+v (%v)", name, ring, err)
		}
	}
	for _, n := range nodes {
		n.Stop()
		if err := client(n).Healthz(); err == nil {
			t.Errorf("%s answers after its drain", n.URL)
		}
	}
}
