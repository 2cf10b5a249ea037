// Package fleettest boots real daemons for tests, the way ftnetd does:
// fleet.NewDaemon, then Daemon.Run on loopback listeners. It imports
// nothing that imports fleet, so wire's own tests can use it too.
package fleettest

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fleet"
)

// Server is a daemon's RPC plane, as fleet.Plane holds it.
type Server = interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// RPC builds a daemon's RPC plane over its manager (a wire.Server); nil
// boots the daemon without one.
type RPC func(*fleet.Manager) Server

// Node is one running daemon.
type Node struct {
	URL     string // the JSON API's base URL
	RPCAddr string // the RPC plane's address; "" without one

	cfg     fleet.DaemonConfig
	rpc     RPC
	mgr     *fleet.Manager
	api     *cuttable
	plane   Server
	stop    context.CancelFunc
	done    chan struct{}
	crash   sync.Once
	crashed atomic.Bool
}

// Start boots cfg, logging to tb unless cfg.Logf is set, and runs it
// with the JSON API and rpc's plane on loopback ports until Stop, Crash
// or the test's cleanup, which drains it.
func Start(tb testing.TB, cfg fleet.DaemonConfig, rpc RPC) *Node {
	tb.Helper()
	return start(tb, cfg, rpc, listen(tb, "127.0.0.1:0"), "127.0.0.1:0")
}

func start(tb testing.TB, cfg fleet.DaemonConfig, rpc RPC, api net.Listener, rpcAddr string) *Node {
	tb.Helper()
	n := &Node{URL: "http://" + api.Addr().String(), cfg: cfg, rpc: rpc, api: &cuttable{Listener: api}, done: make(chan struct{})}
	if cfg.Logf == nil {
		cfg.Logf = tb.Logf
	}
	d, err := fleet.NewDaemon(cfg)
	if err != nil {
		api.Close()
		tb.Fatalf("fleettest: boot: %v", err)
	}
	n.mgr = d.Manager()
	var plane fleet.Plane
	if rpc != nil {
		n.plane = rpc(n.mgr)
		plane = fleet.Plane{Listener: listen(tb, rpcAddr), Server: n.plane}
		n.RPCAddr = plane.Listener.Addr().String()
	}
	ctx, stop := context.WithCancel(context.Background())
	n.stop = stop
	go func() {
		defer close(n.done)
		if err := d.Run(ctx, n.api, plane); err != nil && !n.crashed.Load() {
			tb.Errorf("fleettest: daemon %s: %v", n.URL, err)
		}
	}()
	tb.Cleanup(n.Stop)
	return n
}

// Manager is the node's manager.
func (n *Node) Manager() *fleet.Manager { return n.mgr }

// Stop drains n as SIGTERM does and waits for Run to return.
func (n *Node) Stop() {
	n.stop()
	<-n.done
}

// Crash stops n as SIGKILL does: the RPC plane answers only the frames
// it has read, and the JSON API's connections are cut. Run then finds
// both planes stopped and closes the journal, which already holds every
// acked record. Every call returns once n is down.
func (n *Node) Crash() {
	n.crash.Do(func() {
		n.crashed.Store(true)
		if n.plane != nil {
			n.plane.Shutdown(context.Background())
		}
		n.api.cut()
		n.Stop()
	})
}

// Reboot crashes n unless it is down and boots its config again on its
// addresses: over its journal file, or over a fresh one holding image
// when image is not nil.
func (n *Node) Reboot(tb testing.TB, image []byte) *Node {
	tb.Helper()
	n.Crash()
	cfg := n.cfg
	if image != nil {
		cfg.Journal = filepath.Join(tb.TempDir(), "epochs.wal")
		if err := os.WriteFile(cfg.Journal, image, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return start(tb, cfg, n.rpc, listen(tb, n.api.Addr().String()), n.RPCAddr)
}

// Cluster boots one daemon per name, each a member of the ring over all
// of them, and returns them by name.
func Cluster(tb testing.TB, rpc RPC, names ...string) map[string]*Node {
	tb.Helper()
	apis, peers := make(map[string]net.Listener), make(map[string]string)
	for _, name := range names {
		apis[name] = listen(tb, "127.0.0.1:0")
		peers[name] = "http://" + apis[name].Addr().String()
	}
	nodes := make(map[string]*Node, len(names))
	for _, name := range names {
		nodes[name] = start(tb, fleet.DaemonConfig{Self: name, Peers: peers}, rpc, apis[name], "127.0.0.1:0")
	}
	return nodes
}

// Addrs returns the nodes' JSON API URLs and RPC addresses by name.
func Addrs(nodes map[string]*Node) (urls, rpcAddrs map[string]string) {
	urls, rpcAddrs = make(map[string]string), make(map[string]string)
	for name, n := range nodes {
		urls[name], rpcAddrs[name] = n.URL, n.RPCAddr
	}
	return urls, rpcAddrs
}

// listen binds addr, waiting out a just-closed listener's port.
func listen(tb testing.TB, addr string) net.Listener {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			tb.Fatalf("fleettest: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cuttable is a listener that can cut every connection it accepted.
type cuttable struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
	isCut bool
}

func (l *cuttable) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.isCut {
		c.Close()
	}
	l.conns = append(l.conns, c)
	return c, nil
}

func (l *cuttable) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.isCut = true
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}
