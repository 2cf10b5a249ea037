// Command ftnetd is the online reconfiguration daemon: it owns a fleet
// of fault-tolerant networks and serves the Manager API over HTTP/JSON.
//
// Usage:
//
//	ftnetd -addr :8080 -journal /var/lib/ftnet/epochs.wal -fsync always
//
// With -journal set, every accepted transition (instance create/delete,
// fault/repair event, atomic batch) commits one O(k) CRC32C-framed
// record — epoch plus the sorted fault set — through the ordered commit
// pipeline before the state change becomes visible, and a restart
// replays the log: every instance comes back at its exact pre-kill
// epoch, fault set, and mapping (every record validated and its
// mapping computed afresh), with any torn tail from a crash mid-append
// detected, logged, and truncated. An acknowledged transition has been
// handed to the kernel under every -fsync policy — it survives a kill of
// the daemon — and the policy picks what follows: "always" (fsync before
// acknowledging, group-committed across concurrent writers), "interval"
// (fsync on a timer) or "never" (writeback is the OS's).
//
// The same commit stream feeds live consumers: GET /v1/watch streams
// every transition as resumable NDJSON; -follow <leader-url> turns the
// daemon into a read-only replica that tails a leader's watch stream,
// validates every record and computes its mapping afresh, and serves
// lock-free lookups with its own journal for restart; -compact-every
// periodically checkpoints the fleet state and truncates the journal
// prefix (also on demand via POST /v1/compact), bounding replay length
// and disk. -pprof-addr serves net/http/pprof on a second, separate
// listener (keep it loopback-only); the API mux never exposes it.
// -rpc-addr additionally serves the hot path (Lookup, LookupBatch,
// ApplyBatch) over the length-prefixed binary RPC plane
// (internal/wire) on a persistent-connection TCP listener — same
// manager, same journal, same metrics registry; on a -follow replica
// the RPC plane is read-only like the HTTP plane.
//
// Failover: POST /v1/promote (or SIGUSR1) promotes a -follow replica
// to leader — it stops tailing, drains the replication loop, commits
// a term-bump fence to its own journal, and opens both planes for
// writes. -term N fences the journal at leadership term N on boot,
// for restarting a promoted follower's (or recovered leader's) data
// directory directly as a leader. A deposed leader restarted with
// -follow pointing at the new leader detects the higher term on its
// first watch frame, discards its unreplicated tail, and resyncs from
// the new leader's checkpoint.
//
// The daemon itself is fleet.NewDaemon and Daemon.Run: boot (recover,
// fence, ring, posture), loops, planes, and on SIGINT/SIGTERM the drain
// (RPC, watch streams, HTTP, journal). This file is its flags, its
// listeners, bound once the journal has been replayed, and SIGUSR1.
//
// API (see internal/fleet/api.go for the full route table):
//
//	POST   /v1/instances              {"id":"prod","spec":{"kind":"debruijn","m":2,"h":4,"k":2}}
//	POST   /v1/instances/{id}/events  {"kind":"fault","node":3}  (or "repair")
//	POST   /v1/instances/{id}/events:batch  a whole fault burst, applied atomically
//	GET    /v1/instances/{id}/phi?x=3 where does target node 3 run now?
//	GET    /v1/watch?from=1           the commit stream, as live NDJSON
//	POST   /v1/compact                checkpoint + truncate the journal
//	POST   /v1/promote                promote this replica to leader (term-bump fence)
//	GET    /v1/stats, /healthz, /metrics   (stats include journal/commit/follower counters)
//
// Example leader/follower session:
//
//	ftnetd -addr :8080 -journal /tmp/leader.wal &
//	ftnetd -addr :8081 -journal /tmp/follower.wal -follow http://localhost:8080 &
//	curl -s localhost:8080/v1/instances -d '{"id":"prod","spec":{"kind":"debruijn","m":2,"h":4,"k":2}}'
//	curl -s localhost:8080/v1/instances/prod/events -d '{"kind":"fault","node":3}'
//	curl -s localhost:8081/v1/instances/prod/phi?x=3   # served by the replica
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

func main() {
	cfg := fleet.DaemonConfig{Logf: func(format string, args ...any) { log.Printf("ftnetd: "+format, args...) }}
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&cfg.Journal, "journal", "", "append-only epoch journal path (empty disables durability)")
	flag.StringVar(&cfg.Fsync, "fsync", "always", `journal fsync policy: "always", "interval" or "never"`)
	flag.DurationVar(&cfg.FsyncInterval, "fsync-interval", journal.DefaultSyncInterval, `sync period for -fsync interval`)
	flag.StringVar(&cfg.Follow, "follow", "", "leader base URL; run as a read-only replica tailing its /v1/watch stream")
	flag.DurationVar(&cfg.CompactEvery, "compact-every", 0, "checkpoint-compact the journal on this period (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback-only)")
	rpcAddr := flag.String("rpc-addr", "", "binary RPC plane listen address for the hot path (empty disables)")
	flag.Uint64Var(&cfg.Term, "term", 0, "fence the journal at this leadership term on boot if ahead of the recovered term (0 leaves it; incompatible with -follow)")
	flag.StringVar(&cfg.Self, "shard-self", "", "this daemon's member name in the shard ring (enables sharding with -shard-peers)")
	shardPeers := flag.String("shard-peers", "", `shard ring membership as "name=url,name=url,..." (must include -shard-self)`)
	flag.IntVar(&cfg.Replicas, "shard-replicas", 0, "virtual nodes per ring member (0 selects the default)")
	flag.Parse()

	var err error
	if *shardPeers != "" {
		if cfg.Peers, err = shard.ParsePeers(*shardPeers); err != nil {
			log.Fatalf("ftnetd: %v", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d, err := fleet.NewDaemon(cfg)
	if err != nil {
		log.Fatalf("ftnetd: %v", err)
	}
	mgr := d.Manager()

	if *pprofAddr != "" {
		go func() {
			log.Printf("ftnetd: serving pprof on %s/debug/pprof/", *pprofAddr)
			log.Printf("ftnetd: pprof server: %v", http.ListenAndServe(*pprofAddr, pprofMux()))
		}()
	}

	// SIGUSR1 promotes this daemon to leader, the same call POST
	// /v1/promote makes: a follower drains its replication loop and
	// fences its journal with a term bump; a daemon that is already the
	// leader just reports its term.
	promoteSig := make(chan os.Signal, 1)
	signal.Notify(promoteSig, syscall.SIGUSR1)
	go func() {
		for range promoteSig {
			if t, err := mgr.Promote(ctx, 0); err != nil {
				log.Printf("ftnetd: promote (SIGUSR1): %v", err)
			} else {
				log.Printf("ftnetd: promoted to leadership term %d (SIGUSR1)", t)
			}
		}
	}()

	var rpc fleet.Plane
	if *rpcAddr != "" {
		if rpc.Listener, err = net.Listen("tcp", *rpcAddr); err != nil {
			log.Fatalf("ftnetd: rpc listen: %v", err)
		}
		rpc.Server = wire.NewServer(mgr, wire.ServerOptions{Metrics: mgr.Metrics()})
	}
	api, err := net.Listen("tcp", *addr)
	if err == nil {
		err = d.Run(ctx, api, rpc)
	}
	if err != nil {
		log.Fatalf("ftnetd: %v", err)
	}
}

// pprofMux builds the -pprof-addr handler on its own mux: registering
// the net/http/pprof handlers explicitly (instead of blank-importing
// the package) keeps them off http.DefaultServeMux and entirely off
// the API listener, so profiling exposure is opt-in and on a separate
// — typically loopback-only — address.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
