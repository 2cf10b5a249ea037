// Command ftproxy is the cluster's routing front door: it maps each
// instance id onto its owning daemon and forwards the request there, so
// clients keep a single endpoint while the instance space is sharded —
// and rebalanced — behind it.
//
// Usage:
//
//	ftproxy -addr :8200 -peers a=http://h1:8100,b=http://h2:8100,c=http://h3:8100
//
// It is one routing core and two codec adapters. The core is
// shard.Router (internal/shard): the same consistent-hash ring the
// daemons use, plus a bounded table of exceptions learned from the
// daemons. The ring answer is a hint, not the truth — until a
// migration the source that holds the copy, and after the cutover the
// new owner, may disagree with it — so a daemon that refuses a request
// names the owner, and the router follows and remembers a hint that names
// a configured peer (and only such a hint: it arrived in a response).
// Routing therefore converges on whatever the daemons say without any
// shared state or coordination; a proxy restart merely re-learns the
// overrides from the next few redirects.
//
// The HTTP adapter (proxy.go) reads the instance id out of the path or
// the create body, sends the buffered request to the member the router
// names, and on a 403 carrying X-Ftnet-Owner asks the router where the
// hint leads and retries there once; a second bounce is surfaced as it
// came. Routes with an instance id are forwarded; /healthz, /metrics
// and /v1/ring are answered locally; everything else is refused —
// fan-in endpoints like /v1/stats belong to the individual daemons.
//
// With -rpc-addr and -rpc-peers the wire adapter (wire.Proxy) fronts
// the binary RPC plane the same way, with a router of its own over the
// same members: it checks each frame against the protocol grammar,
// forwards it verbatim to the owner's connection under a sequence
// number of that connection, and relays answers back in completion
// order; StatusWrongShard is its 403. Its ftproxy_rpc_* metrics land on
// this proxy's /metrics beside the HTTP adapter's ftproxy_* ones.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8200", "listen address")
	peersFlag := flag.String("peers", "", `ring membership as "name=url,name=url,..."`)
	replicas := flag.Int("replicas", 0, "virtual nodes per ring member (0 selects the default)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-attempt upstream timeout, and the bound on the shutdown drain")
	rpcAddr := flag.String("rpc-addr", "", "binary RPC plane listen address (empty disables)")
	rpcPeersFlag := flag.String("rpc-peers", "", `RPC addresses of the same members as "name=host:port,..."`)
	flag.Parse()

	peers, err := shard.ParsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("ftproxy: %v", err)
	}
	p := newProxy(peers, *replicas, *timeout)

	var rp *wire.Proxy
	var rpcLn net.Listener
	if *rpcAddr != "" {
		rpcPeers, err := shard.ParsePeers(*rpcPeersFlag)
		if err != nil {
			log.Fatalf("ftproxy: -rpc-peers: %v", err)
		}
		for name := range rpcPeers {
			if _, ok := peers[name]; !ok {
				log.Fatalf("ftproxy: -rpc-peers member %q not in -peers", name)
			}
		}
		for name := range peers {
			if _, ok := rpcPeers[name]; !ok {
				log.Fatalf("ftproxy: member %q has no RPC address in -rpc-peers", name)
			}
		}
		rp = wire.NewProxy(wire.ProxyOptions{
			RPCPeers:  rpcPeers,
			HTTPPeers: peers,
			Replicas:  *replicas,
			Timeout:   *timeout,
			Metrics:   p.reg, // one /metrics covers both planes
		})
		if rpcLn, err = net.Listen("tcp", *rpcAddr); err != nil {
			log.Fatalf("ftproxy: rpc listen: %v", err)
		}
		log.Printf("ftproxy: RPC plane routing %d shard members on %s", len(rpcPeers), *rpcAddr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           p,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("ftproxy: routing %d shard members on %s", len(peers), *addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, srv, rp, rpcLn, *timeout); err != nil {
		log.Fatal(err)
	}
}

// serve runs the HTTP front, and the RPC front when there is one, until
// either fails or ctx is cancelled; then it drains both within drain:
// every RPC frame already read is forwarded, answered and written back
// before its connection closes, so a restart leaves no ApplyBatch's
// fate unknown that a moment's patience would have told.
func serve(ctx context.Context, srv *http.Server, rp *wire.Proxy, rpcLn net.Listener, drain time.Duration) error {
	failed := make(chan error, 2)
	if rp != nil {
		go func() { failed <- rp.Serve(rpcLn) }()
	}
	go func() { failed <- srv.ListenAndServe() }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	log.Printf("ftproxy: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	var err error
	if rp != nil {
		err = rp.Shutdown(sctx)
	}
	return errors.Join(err, srv.Shutdown(sctx))
}
