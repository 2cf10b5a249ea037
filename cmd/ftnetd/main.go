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
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	journalPath := flag.String("journal", "", "append-only epoch journal path (empty disables durability)")
	fsyncMode := flag.String("fsync", "always", `journal fsync policy: "always", "interval" or "never"`)
	fsyncEvery := flag.Duration("fsync-interval", journal.DefaultSyncInterval, `sync period for -fsync interval`)
	follow := flag.String("follow", "", "leader base URL; run as a read-only replica tailing its /v1/watch stream")
	compactEvery := flag.Duration("compact-every", 0, "checkpoint-compact the journal on this period (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback-only)")
	rpcAddr := flag.String("rpc-addr", "", "binary RPC plane listen address for the hot path (empty disables)")
	term := flag.Uint64("term", 0, "fence the journal at this leadership term on boot if ahead of the recovered term (0 leaves it; incompatible with -follow)")
	shardSelf := flag.String("shard-self", "", "this daemon's member name in the shard ring (enables sharding with -shard-peers)")
	shardPeers := flag.String("shard-peers", "", `shard ring membership as "name=url,name=url,..." (must include -shard-self)`)
	shardReplicas := flag.Int("shard-replicas", 0, "virtual nodes per ring member (0 selects the default)")
	flag.Parse()
	if *term > 0 && *follow != "" {
		log.Fatalf("ftnetd: -term promotes this daemon to leader and cannot be combined with -follow")
	}

	mgr := fleet.NewManager(fleet.Options{})
	if _, err := openJournal(mgr, *journalPath, *fsyncMode, *fsyncEvery, log.Printf); err != nil {
		log.Fatalf("ftnetd: %v", err)
	}
	if *term > 0 {
		if cur, _ := mgr.Term(); *term > cur {
			if _, err := mgr.Promote(context.Background(), *term); err != nil {
				log.Fatalf("ftnetd: term fence: %v", err)
			}
			log.Printf("ftnetd: leadership term fenced at %d", *term)
		} else {
			log.Printf("ftnetd: recovered term %d already covers -term %d", cur, *term)
		}
	}

	// The topology is installed after recovery. The order is kept but
	// carries no weight: a daemon serves the copies it holds whatever the
	// ring says, so a recovered instance the ring assigns elsewhere is
	// served here until a rebalance migrates it, whichever came first.
	if *shardSelf != "" || *shardPeers != "" {
		peers, err := shard.ParsePeers(*shardPeers)
		if err != nil {
			log.Fatalf("ftnetd: %v", err)
		}
		if _, ok := peers[*shardSelf]; !ok {
			log.Fatalf("ftnetd: -shard-self %q is not in -shard-peers", *shardSelf)
		}
		mgr.SetTopology(*shardSelf, peers, *shardReplicas)
		log.Printf("ftnetd: sharding as %q across %d members", *shardSelf, len(peers))
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("ftnetd: serving pprof on %s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux()); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ftnetd: pprof server: %v", err)
			}
		}()
	}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()

	if _, sharded := mgr.Topology(); sharded {
		go reconcileLoop(ctx, mgr, log.Printf)
	}

	if *follow != "" {
		follower, err := fleet.NewFollower(mgr, *follow, fleet.FollowerOptions{Logf: log.Printf})
		if err != nil {
			log.Fatalf("ftnetd: %v", err)
		}
		go follower.Run(ctx)
		log.Printf("ftnetd: following %s (read-only replica)", *follow)
	}
	if *compactEvery > 0 {
		go compactLoop(ctx, mgr, *compactEvery, log.Printf)
	}

	// SIGUSR1 promotes this daemon to leader, the same call POST
	// /v1/promote makes: a follower drains its replication loop and
	// fences its journal with a term bump; a daemon that is already the
	// leader just reports its term.
	promoteSig := make(chan os.Signal, 1)
	signal.Notify(promoteSig, syscall.SIGUSR1)
	go func() {
		for range promoteSig {
			t, err := mgr.Promote(ctx, 0)
			if err != nil {
				log.Printf("ftnetd: promote (SIGUSR1): %v", err)
			} else {
				log.Printf("ftnetd: promoted to leadership term %d (SIGUSR1)", t)
			}
		}
	}()

	var rpcSrv *wire.Server
	if *rpcAddr != "" {
		ln, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatalf("ftnetd: rpc listen: %v", err)
		}
		rpcSrv = wire.NewServer(mgr, wire.ServerOptions{Metrics: mgr.Metrics()})
		go func() {
			if err := rpcSrv.Serve(ln); err != nil {
				log.Printf("ftnetd: rpc server: %v", err)
			}
		}()
		log.Printf("ftnetd: serving the binary RPC plane on %s", *rpcAddr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(mgr),
		ReadHeaderTimeout: 5 * time.Second,
		// Request bodies and responses are bounded — except /v1/watch,
		// which streams and lifts these per-connection deadlines itself
		// via http.ResponseController.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("ftnetd: shutting down")
		stop() // ends the follower and compaction loops
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain order: answer every RPC request already on the wire,
		// end watch streams at a record boundary (clean EOF) so the
		// HTTP drain below can finish, then flush+fsync the journal
		// last — no acknowledged commit is ever lost to shutdown.
		if rpcSrv != nil {
			if derr := rpcSrv.Shutdown(sctx); derr != nil {
				log.Printf("ftnetd: rpc drain: %v", derr)
			}
		}
		mgr.Quiesce()
		err := srv.Shutdown(sctx)
		if cerr := mgr.Close(); err == nil {
			err = cerr
		}
		done <- err
	}()

	log.Printf("ftnetd: serving the reconfiguration API on %s", *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}

// reconcileLoop audits the displaced copies this daemon booted with
// against the actual ring owners (Manager.ReconcilePins): a crash
// between a handoff's commit on the target and the OpDelete here leaves
// a stale local copy that recovery faithfully resurrects and this
// daemon, holding it, serves — the audit retires every copy whose ring
// owner confirms a committed handoff. Retries with backoff while any
// probe is unresolved, since peers boot in arbitrary order.
func reconcileLoop(ctx context.Context, mgr *fleet.Manager, logf func(string, ...any)) {
	backoff := 2 * time.Second
	for {
		st := mgr.ReconcilePins()
		if st.Checked > 0 {
			logf("ftnetd: pin reconciliation: %d checked, %d retired (handoff had committed), %d kept, %d unresolved",
				st.Checked, st.Retired, st.Kept, st.Unresolved)
		}
		if st.Unresolved == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}

// compactLoop periodically checkpoints the fleet and truncates the
// journal prefix, bounding replay length; split from main for tests.
func compactLoop(ctx context.Context, mgr *fleet.Manager, every time.Duration, logf func(string, ...any)) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st, err := mgr.Compact()
			if err != nil {
				logf("ftnetd: compaction failed: %v", err)
				continue
			}
			logf("ftnetd: compacted journal to %d checkpoint records at seq %d in %.3fs",
				st.Instances, st.Seq, st.Seconds)
		}
	}
}

// openJournal performs the durable boot sequence: replay the existing
// log into the manager (verifying every epoch against a fresh mapping
// recomputation), truncate any torn tail left by a crash mid-append,
// and only then open the append writer and attach it — so new records
// always continue the valid prefix. A replay that fails verification
// is fatal: the daemon refuses to serve state it cannot prove correct.
// Split from main (with an injectable logger) so the end-to-end test
// boots exactly this sequence.
func openJournal(mgr *fleet.Manager, path, fsyncMode string, interval time.Duration, logf func(string, ...any)) (*journal.Writer, error) {
	if path == "" {
		return nil, nil
	}
	policy, err := journal.ParseSyncPolicy(fsyncMode)
	if err != nil {
		return nil, err
	}
	st, err := mgr.RecoverFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal recovery from %s failed: %w", path, err)
	}
	if st.Torn {
		logf("ftnetd: journal %s: torn tail dropped at byte %d (%s)", path, st.Offset, st.TornReason)
	}
	if st.Records > 0 {
		logf("ftnetd: recovered %d journal records (%d instances, %d transitions, %d snapshots built, %d checkpoints, last epoch %d, next seq %d) in %.3fs from %s",
			st.Records, st.Created+st.Checkpoints-st.Deleted, st.Transitions, st.Built, st.Checkpoints, st.LastEpoch, st.NextSeq, st.Seconds, path)
	}
	jw, err := journal.Create(path, journal.Options{Sync: policy, Interval: interval})
	if err != nil {
		return nil, err
	}
	mgr.SetJournal(jw)
	logf("ftnetd: journaling epochs to %s (fsync %s)", path, policy)
	return jw, nil
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

// newServer builds the daemon's handler; split from main so the
// end-to-end test serves the exact handler the binary runs.
func newServer(mgr *fleet.Manager) http.Handler {
	return fleet.NewHTTPHandler(mgr)
}
