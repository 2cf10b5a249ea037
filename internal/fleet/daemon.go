package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ftnet/internal/journal"
)

// Plane is a server of a daemon's manager bound to the listener it
// serves: the binary RPC plane (ftnetd: a wire.Server) that Run drains
// ahead of the JSON API it builds itself. The zero value serves none.
type Plane struct {
	Listener net.Listener
	Server   interface {
		Serve(net.Listener) error
		Shutdown(context.Context) error
	}
}

// DaemonConfig is one daemon. The zero value is an in-memory leader.
type DaemonConfig struct {
	// Journal is the epoch journal's path ("" keeps the fleet in memory),
	// Fsync its policy ("always" or "", "interval", "never") and
	// FsyncInterval the period under "interval" (<= 0: the journal's).
	Journal       string
	Fsync         string
	FsyncInterval time.Duration
	// Term fences the journal at this leadership term on boot if it is
	// ahead of the recovered one. A follower takes none.
	Term uint64
	// Self and Peers install the shard ring (SetTopology); Self must be a
	// member. Both empty leave the daemon unsharded.
	Self  string
	Peers map[string]string
	// Follow, a leader's base URL, boots the daemon as its read-only
	// replica, on a loop Follower tunes (its Logf defaults to Logf).
	Follow   string
	Follower FollowerOptions
	// CompactEvery checkpoint-compacts the journal on this period (<= 0:
	// only on demand).
	CompactEvery time.Duration
	// Logf receives the lifecycle lines (nil discards them).
	Logf func(format string, args ...any)
}

// Daemon is a booted manager and what Run serves it with.
type Daemon struct {
	cfg      DaemonConfig
	mgr      *Manager
	follower *Follower // nil unless cfg.Follow
}

// drainTimeout bounds each plane's drain at shutdown.
const drainTimeout = 10 * time.Second

// NewDaemon boots a daemon, in this order: replay the journal into a
// fresh manager (every epoch verified against a recomputed mapping, a
// torn tail logged and truncated) and only then attach the append
// writer, so new records continue the valid prefix; fence the term;
// install the ring; take the follower posture. A journal that fails
// verification is an error: the daemon refuses to serve state it cannot
// prove correct. Nothing is served until Run.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Term > 0 && cfg.Follow != "" {
		return nil, errors.New("fleet: a term fence makes the daemon leader and cannot be combined with following")
	}
	sharded := cfg.Self != "" || len(cfg.Peers) > 0
	if _, ok := cfg.Peers[cfg.Self]; sharded && !ok {
		return nil, fmt.Errorf("fleet: shard member %q is not in the ring's peers", cfg.Self)
	}
	d := &Daemon{cfg: cfg, mgr: NewManager(Options{})}
	err := d.openJournal()
	if cur, _ := d.mgr.Term(); err == nil && cfg.Term > 0 {
		if cfg.Term <= cur {
			cfg.Logf("recovered term %d already covers -term %d", cur, cfg.Term)
		} else if _, err = d.mgr.Promote(context.Background(), cfg.Term); err != nil {
			err = fmt.Errorf("term fence: %w", err)
		} else {
			cfg.Logf("leadership term fenced at %d", cfg.Term)
		}
	}
	if err == nil && sharded {
		d.mgr.SetTopology(cfg.Self, cfg.Peers, 0)
		cfg.Logf("sharding as %q across %d members", cfg.Self, len(cfg.Peers))
	}
	if err == nil && cfg.Follow != "" {
		opts := cfg.Follower
		if opts.Logf == nil {
			opts.Logf = cfg.Logf
		}
		d.follower, err = NewFollower(d.mgr, cfg.Follow, opts)
	}
	if err != nil {
		d.mgr.Close()
		return nil, err
	}
	return d, nil
}

// Manager is the daemon's manager.
func (d *Daemon) Manager() *Manager { return d.mgr }

func (d *Daemon) openJournal() error {
	path := d.cfg.Journal
	if path == "" {
		return nil
	}
	policy, err := journal.ParseSyncPolicy(cmp.Or(d.cfg.Fsync, "always"))
	if err != nil {
		return err
	}
	st, err := d.mgr.RecoverFile(path)
	if err != nil {
		return fmt.Errorf("journal recovery from %s failed: %w", path, err)
	}
	if st.Torn {
		d.cfg.Logf("journal %s: torn tail dropped at byte %d (%s)", path, st.Offset, st.TornReason)
	}
	if st.Records > 0 {
		d.cfg.Logf("recovered %d journal records (%d instances, %d transitions, %d snapshots built, %d checkpoints, last epoch %d, next seq %d) in %.3fs from %s",
			st.Records, st.Created+st.Checkpoints-st.Deleted, st.Transitions, st.Built, st.Checkpoints, st.LastEpoch, st.NextSeq, st.Seconds, path)
	}
	jw, err := journal.Create(path, journal.Options{Sync: policy, Interval: d.cfg.FsyncInterval})
	if err != nil {
		return err
	}
	d.mgr.SetJournal(jw)
	d.cfg.Logf("journaling epochs to %s (fsync %s)", path, policy)
	return nil
}

// Run serves the daemon, once: the loops (ring audit, replication,
// compaction), the JSON API on api and the plane rpc (nil and zero serve
// neither), until ctx ends or a plane fails; then it drains and returns
// the plane's error or the drain's.
func (d *Daemon) Run(ctx context.Context, api net.Listener, rpc Plane) error {
	loopCtx, stopLoops := context.WithCancel(ctx)
	defer stopLoops()
	var running sync.WaitGroup
	spawn := func(loop func(context.Context)) {
		running.Add(1)
		go func() {
			defer running.Done()
			loop(loopCtx)
		}()
	}
	if _, sharded := d.mgr.Topology(); sharded {
		spawn(d.reconcile)
	}
	if d.follower != nil {
		spawn(func(ctx context.Context) { d.follower.Run(ctx) })
		d.cfg.Logf("following %s (read-only replica)", d.cfg.Follow)
	}
	if d.cfg.CompactEvery > 0 {
		spawn(d.compact)
	}

	failed := make(chan error, 2) // one slot per plane: a failure in the drain never blocks
	serve := func(p Plane, what string) {
		spawn(func(context.Context) {
			if err := p.Server.Serve(p.Listener); err != nil && !errors.Is(err, http.ErrServerClosed) {
				failed <- fmt.Errorf("%s: %w", what, err)
			}
		})
		d.cfg.Logf("serving the %s on %s", what, p.Listener.Addr())
	}
	if rpc.Server != nil {
		serve(rpc, "binary RPC plane")
	}
	var jsonAPI Plane
	if api != nil {
		jsonAPI = Plane{Listener: api, Server: &http.Server{
			Handler:           NewHTTPHandler(d.mgr),
			ReadHeaderTimeout: 5 * time.Second,
			// Request bodies and responses are bounded — except /v1/watch,
			// which streams and lifts these per-connection deadlines itself
			// via http.ResponseController.
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 30 * time.Second,
			IdleTimeout:  2 * time.Minute,
		}}
		serve(jsonAPI, "reconfiguration API")
	}

	var err error
	select {
	case <-ctx.Done():
	case err = <-failed:
	}
	d.cfg.Logf("shutting down")
	stopLoops()
	return errors.Join(err, d.drain(rpc, jsonAPI, &running))
}

// drain stops the daemon in the one order that loses nothing acked:
// answer every RPC request already on the wire (a write among them
// commits), end the watch streams at a record boundary (a clean EOF) so
// the HTTP drain can finish, drain HTTP, wait for the loops (stopped
// already: each returns at its context's end, a ring-audit probe in
// flight included) and the planes to return, and flush and fsync the
// journal last.
func (d *Daemon) drain(rpc, api Plane, running *sync.WaitGroup) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if rpc.Server != nil {
		if err := rpc.Server.Shutdown(ctx); err != nil {
			d.cfg.Logf("rpc drain: %v", err)
		}
	}
	d.mgr.pipe.log.Quiesce()
	var err error
	if api.Server != nil {
		err = api.Server.Shutdown(ctx)
	}
	running.Wait()
	return errors.Join(err, d.mgr.Close())
}

// reconcile audits the displaced copies this daemon booted with against
// the actual ring owners (Manager.reconcilePins): a crash between a
// handoff's commit on the target and the OpDelete here leaves a stale
// local copy that recovery faithfully resurrects and this daemon,
// holding it, serves — the audit retires every copy whose ring owner
// confirms a committed handoff. It retries with backoff while any probe
// is unresolved, since peers boot in arbitrary order.
func (d *Daemon) reconcile(ctx context.Context) {
	backoff := 2 * time.Second
	for {
		st := d.mgr.reconcilePins(ctx)
		if st.Checked > 0 {
			d.cfg.Logf("pin reconciliation: %d checked, %d retired (handoff had committed), %d kept, %d unresolved",
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
		backoff = min(2*backoff, 30*time.Second)
	}
}

// compact checkpoints the fleet and truncates the journal prefix every
// CompactEvery, bounding replay length.
func (d *Daemon) compact(ctx context.Context) {
	t := time.NewTicker(d.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st, err := d.mgr.Compact()
			if err != nil {
				d.cfg.Logf("compaction failed: %v", err)
				continue
			}
			d.cfg.Logf("compacted journal to %d checkpoint records at seq %d in %.3fs",
				st.Instances, st.Seq, st.Seconds)
		}
	}
}
