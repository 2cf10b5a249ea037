package loadgen

import (
	"context"
	"net"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/wire"
)

// startDaemon boots and runs one in-process ftnetd the way the binary
// does (fleet.NewDaemon, then Run), with both planes on loopback ports,
// until the test ends or stop (the drain SIGTERM starts) returns. It
// returns the daemon, its HTTP base URL and its RPC address.
func startDaemon(t *testing.T, cfg fleet.DaemonConfig) (d *fleet.Daemon, url, rpcAddr string, stop func()) {
	t.Helper()
	cfg.Logf = t.Logf
	d, err := fleet.NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	api := listen(t)
	rpc := fleet.Plane{Listener: listen(t), Server: wire.NewServer(d.Manager(), wire.ServerOptions{Metrics: d.Manager().Metrics()})}
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
	return d, "http://" + api.Addr().String(), rpc.Listener.Addr().String(), stop
}

// fastFollower is a replication loop at test speed.
var fastFollower = fleet.FollowerOptions{Heartbeat: 50 * time.Millisecond, StallTimeout: 2 * time.Second, Backoff: 20 * time.Millisecond}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
