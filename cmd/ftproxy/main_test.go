package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestProxyRoutesByRing(t *testing.T) {
	nodes := fleettest.Cluster(t, nil, "a", "b")
	peers, _ := fleettest.Addrs(nodes)
	px := httptest.NewServer(newProxy(peers, 10*time.Second))
	t.Cleanup(px.Close)
	mA, mB := nodes["a"].Manager(), nodes["b"].Manager()
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}

	// Create a handful of instances through the proxy; each must land on
	// the daemon the ring assigns, never the other one.
	ring := shard.New([]string{"a", "b"}, 0)
	byMember := map[string]*fleet.Manager{"a": mA, "b": mB}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("inst-%d", i)
		resp := postJSON(t, px.URL+"/v1/instances", map[string]any{"id": id, "spec": spec})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s via proxy = %d", id, resp.StatusCode)
		}
		owner := ring.Owner(id)
		if _, ok := byMember[owner].Get(id); !ok {
			t.Fatalf("instance %s not on ring owner %s", id, owner)
		}
		for member, m := range byMember {
			if member != owner {
				if _, ok := m.Get(id); ok {
					t.Fatalf("instance %s duplicated on %s", id, member)
				}
			}
		}
	}

	// Events and lookups route the same way.
	resp := postJSON(t, px.URL+"/v1/instances/inst-0/events", fleet.Event{Kind: fleet.EventFault, Node: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event via proxy = %d", resp.StatusCode)
	}
	r, err := http.Get(px.URL + "/v1/instances/inst-0/phi?x=0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("phi via proxy = %d", r.StatusCode)
	}
	var phi struct{ Phi int }
	if err := json.NewDecoder(r.Body).Decode(&phi); err != nil {
		t.Fatal(err)
	}
	want, err := byMember[ring.Owner("inst-0")].Lookup("inst-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if phi.Phi != want {
		t.Fatalf("phi via proxy = %d, want %d", phi.Phi, want)
	}

	// Paths without an instance id are refused, not misrouted.
	r2, err := http.Get(px.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats via proxy = %d, want 404", r2.StatusCode)
	}
}

// TestProxyEscapedIDRoutesWhole is the misrouting regression: the name
// in the request is the routing key, whole. An id with path syntax in
// it, created through the proxy, lands on the ring's owner of that id —
// not of the part before its first "/" — and reads and writes through
// the proxy reach it there, because the proxy forwards the path as the
// client escaped it.
func TestProxyEscapedIDRoutesWhole(t *testing.T) {
	nodes := fleettest.Cluster(t, nil, "a", "b")
	peers, _ := fleettest.Addrs(nodes)
	px := httptest.NewServer(newProxy(peers, 10*time.Second))
	t.Cleanup(px.Close)
	mA, mB := nodes["a"].Manager(), nodes["b"].Manager()
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}
	ring := shard.New([]string{"a", "b"}, 0)
	byMember := map[string]*fleet.Manager{"a": mA, "b": mB}
	c := fleet.Client{HTTP: px.Client(), Base: px.URL}

	// A "rack/N" the ring places away from "rack", so routing by the
	// truncated id shows as a miss, not as luck.
	slashed := ""
	for i := 0; slashed == ""; i++ {
		if id := fmt.Sprintf("rack/%d", i); ring.Owner(id) != ring.Owner("rack") {
			slashed = id
		}
	}
	for node, id := range []string{slashed, "rack?7", "rack#7", "rack%7", "rack%2F7", "rack 7"} {
		if info, err := c.Create(id, spec); err != nil || info.ID != id {
			t.Fatalf("create %q via proxy = (%+v, %v)", id, info, err)
		}
		owner := ring.Owner(id)
		if _, ok := byMember[owner].Get(id); !ok {
			t.Fatalf("instance %q not on its ring owner %s", id, owner)
		}
		if res, err := c.EventBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: node}}); err != nil || res.Epoch != 1 {
			t.Errorf("event on %q via proxy = (%+v, %v), want epoch 1", id, res, err)
		}
		if info, err := c.Instance(id); err != nil || info.ID != id || info.Epoch != 1 {
			t.Errorf("read %q back via proxy = (%+v, %v), want it at epoch 1", id, info, err)
		}
		if phi, err := c.Lookup(id, node); err != nil || phi != node+1 {
			t.Errorf("phi(%d) of %q via proxy = (%d, %v), want %d", node, id, phi, err, node+1)
		}
	}
	if got := metricValue(t, px.URL, "ftproxy_redirects_total"); got != "0" {
		t.Errorf("redirects = %s, want 0: every request went straight to its owner", got)
	}
}

// TestProxyLearnsFromRedirect drives the redirect-learn-retry path
// with a real daemon-generated hint: the daemons shard with a
// different vnode count than the proxy, so for some id the proxy's
// ring answer is wrong. The first request bounces off the wrong daemon
// (403 + X-Ftnet-Owner), the proxy retries at the hinted URL, and the
// client sees only the success; the second request uses the cached
// override and never bounces.
func TestProxyLearnsFromRedirect(t *testing.T) {
	nodes := fleettest.Cluster(t, nil, "a", "b")
	peers, _ := fleettest.Addrs(nodes)
	for name, n := range nodes {
		n.Manager().SetTopology(name, peers, 16) // daemons: 16 vnodes; proxy: default
	}
	px := httptest.NewServer(newProxy(peers, 10*time.Second))
	t.Cleanup(px.Close)
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}

	proxyRing := shard.New([]string{"a", "b"}, 0)
	daemonRing := shard.New([]string{"a", "b"}, 16)
	id := ""
	for i := 0; i < 10000 && id == ""; i++ {
		probe := fmt.Sprintf("drift-%d", i)
		if proxyRing.Owner(probe) != daemonRing.Owner(probe) {
			id = probe
		}
	}
	if id == "" {
		t.Fatal("no id where the two rings disagree")
	}

	resp := postJSON(t, px.URL+"/v1/instances", map[string]any{"id": id, "spec": spec})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via mismatched proxy = %d (redirect not followed)", resp.StatusCode)
	}
	if got := metricValue(t, px.URL, "ftproxy_redirects_total"); got != "1" {
		t.Errorf("redirects after create = %s, want 1", got)
	}
	if n := ringOverrides(t, px.URL); n != 1 {
		t.Errorf("router holds %d overrides after one followed hint, want 1", n)
	}
	resp = postJSON(t, px.URL+"/v1/instances/"+id+"/events", fleet.Event{Kind: fleet.EventFault, Node: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event after learned override = %d", resp.StatusCode)
	}
	if got := metricValue(t, px.URL, "ftproxy_redirects_total"); got != "1" {
		t.Errorf("redirects after cached-override request = %s, want still 1", got)
	}
	if got := metricValue(t, px.URL, "ftproxy_misroutes_total"); got != "0" {
		t.Errorf("misroutes = %s, want 0", got)
	}
}

// metricValue scrapes one counter from the proxy's /metrics text.
func metricValue(t *testing.T, base, name string) string {
	t.Helper()
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, b)
	return ""
}

// TestProxyIgnoresForeignOwnerHint: X-Ftnet-Owner comes from an
// upstream response, so a compromised or buggy daemon could use it to
// steer (and cache) traffic toward an arbitrary URL. The proxy must
// only honor hints naming a configured peer: a foreign hint is not
// followed, not cached, and the bounce surfaces to the client.
func TestProxyIgnoresForeignOwnerHint(t *testing.T) {
	var evilHits atomic.Int64
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		evilHits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(evil.Close)
	// Every configured daemon answers 403 with a hint pointing outside
	// the cluster.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Ftnet-Owner", evil.URL)
		w.WriteHeader(http.StatusForbidden)
	}))
	t.Cleanup(bad.Close)

	px := httptest.NewServer(newProxy(map[string]string{"a": bad.URL, "b": bad.URL}, 5*time.Second))
	t.Cleanup(px.Close)

	r, err := http.Get(px.URL + "/v1/instances/steered/phi?x=0")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusForbidden {
		t.Fatalf("status with foreign hint = %d, want the 403 surfaced", r.StatusCode)
	}
	if n := evilHits.Load(); n != 0 {
		t.Fatalf("foreign URL received %d requests, want 0", n)
	}
	if got := metricValue(t, px.URL, "ftproxy_redirects_total"); got != "0" {
		t.Errorf("redirects = %s, want 0 (foreign hint must not be followed)", got)
	}
	if got := metricValue(t, px.URL, "ftproxy_misroutes_total"); got != "1" {
		t.Errorf("misroutes = %s, want 1", got)
	}
	// Nothing cached: the poisoned hint must not survive to steer the
	// next request either.
	if n := ringOverrides(t, px.URL); n != 0 {
		t.Errorf("override cache holds %d entries, want 0", n)
	}
}

// ringOverrides reads the router's override count off GET /v1/ring.
func ringOverrides(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Overrides int `json:"overrides"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	return ring.Overrides
}

// TestProxyDrainsOnShutdown pins what SIGINT/SIGTERM do (main cancels
// serve's context on either): an RPC frame the proxy has read when the
// context is cancelled is still forwarded, answered and written back
// before its connection closes, and serve returns nil.
func TestProxyDrainsOnShutdown(t *testing.T) {
	backend := fleettest.Start(t, fleet.DaemonConfig{}, func(m *fleet.Manager) fleettest.Server {
		return wire.NewServer(m, wire.ServerOptions{})
	})
	mgr := backend.Manager()
	if _, err := mgr.Create("prod", fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}

	// The proxy reaches the daemon through a relay that holds what the
	// proxy sends until release: that is the frame in flight.
	release := make(chan struct{})
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relayLn.Close() })
	go func() {
		for {
			down, err := relayLn.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend.RPCAddr)
			if err != nil {
				down.Close()
				return
			}
			go func() { io.Copy(down, up); down.Close() }()
			go func() { <-release; io.Copy(up, down); up.Close() }()
		}
	}()

	p := newProxy(map[string]string{"a": "http://daemon-a.example:8100"}, 5*time.Second)
	rp := wire.NewProxy(wire.ProxyOptions{
		RPCPeers:  map[string]string{"a": relayLn.Addr().String()},
		HTTPPeers: map[string]string{"a": "http://daemon-a.example:8100"},
		Timeout:   5 * time.Second,
		Metrics:   p.reg,
	})
	rpcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, &http.Server{Addr: "127.0.0.1:0", Handler: p}, rp, rpcLn, 5*time.Second)
	}()

	cl, err := wire.Dial(rpcLn.Addr().String(), wire.Options{Conns: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	type answer struct {
		phi int
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		phi, _, err := cl.Lookup("prod", 3)
		answered <- answer{phi, err}
	}()
	requests := p.reg.Counter("ftproxy_rpc_requests_total", "")
	for deadline := time.Now().Add(5 * time.Second); requests.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the proxy never read the frame")
		}
	}

	cancel()
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	want, _ := mgr.Lookup("prod", 3)
	if got := <-answered; got.err != nil || got.phi != want {
		t.Fatalf("the frame in flight at shutdown = (%d, %v), want (%d, nil)", got.phi, got.err, want)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve after a drained shutdown: %v", err)
	}
	if _, _, err := cl.Lookup("prod", 3); !wire.IsTransport(err) {
		t.Fatalf("Lookup after shutdown: %v, want a transport error (nobody listening)", err)
	}
}
