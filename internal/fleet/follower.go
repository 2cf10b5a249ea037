package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/journal"
	"ftnet/internal/obs"
)

// Follower tails a leader's GET /v1/watch commit stream and turns the
// local Manager into a verified replica: every forwarded record is
// checked on receipt (epoch chain, fault set in range, distinct and
// within budget — the cheap receiver-side verification of a forwarded
// record stream) and its mapping computed with ft.NewMapping, so the
// replica's phi is bit-identical to a fresh ft.NewMapping by
// construction: there is no memo to diverge from. It is re-committed through the local pipeline, so the follower has its
// own journal for restart, serves the same lock-free lookups, and even
// exposes its own watch stream for chaining.
//
// The loop is resumable and self-healing: it always subscribes from
// its own NextSeq, so a torn stream just reconnects and continues; a
// checkpoint group (the leader compacted past us, or we joined fresh)
// rebases the replica onto it; a local log that cannot be trusted is
// reset (see reset) and rebuilt from seq 1; heartbeats bound how long a
// dead connection can go unnoticed.
type Follower struct {
	mgr    *Manager
	leader string
	opts   FollowerOptions

	connected  atomic.Bool
	entries    atomic.Uint64
	heartbeats atomic.Uint64
	reconnects atomic.Uint64
	resyncs    atomic.Uint64
	demotions  atomic.Uint64 // deposed-leader resets (higher term seen upstream)
	discarded  atomic.Uint64 // local entries dropped across all demotions
	leaderSeq  atomic.Uint64 // highest seq the leader has shown us (entries + heartbeats)
	lastErr    atomic.Pointer[string]

	// Promotion handshake (Manager.Promote drives it through halt).
	// promoted stops the Run loop from opening new streams;
	// runCancel/runDone let halt cut the in-flight stream and wait for
	// the loop to fully drain before the term is bumped.
	promoted  atomic.Bool
	runMu     sync.Mutex
	runCancel context.CancelFunc
	runDone   chan struct{}

	// Replication observability, registered into the manager's metrics
	// registry: how far behind the leader's stream we are (sequence
	// numbers) and how stale each applied entry was (leader commit
	// wall-clock to local apply; needs roughly-synchronized clocks, and
	// is skipped for entries with no timestamp, e.g. journal catch-up).
	lagGauge *obs.Gauge
	ageHist  *obs.Histogram
}

// backoffMax caps the follower's exponential reconnect backoff, unless
// FollowerOptions.Backoff starts above it.
const backoffMax = 10 * time.Second

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// Client issues the watch requests. It must not set a global
	// timeout (the watch response never ends); the default client adds
	// only a dial/header timeout.
	Client *http.Client
	// Heartbeat is the interval requested from the leader (default 5s).
	Heartbeat time.Duration
	// StallTimeout disconnects a stream with no entries or heartbeats
	// for this long (default 4x Heartbeat).
	StallTimeout time.Duration
	// Backoff is the initial pause between reconnect attempts (default
	// 500ms). Each consecutive failure doubles it up to backoffMax,
	// with +-50% jitter, so a fleet of followers does not hammer a dead
	// leader in lockstep during exactly the window a failover happens;
	// a stream that connects resets the ladder.
	Backoff time.Duration
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// FollowerStats is a point-in-time snapshot of the replication loop.
type FollowerStats struct {
	Leader     string `json:"leader"`
	Connected  bool   `json:"connected"`
	Entries    uint64 `json:"entries"`    // stream entries received
	Heartbeats uint64 `json:"heartbeats"` // heartbeat lines received
	Reconnects uint64 `json:"reconnects"` // streams (re)opened
	Resyncs    uint64 `json:"resyncs"`    // resets of a local log that could not be trusted
	Demotions  uint64 `json:"demotions"`  // deposed-leader resets (higher term upstream)
	Discarded  uint64 `json:"discarded"`  // local entries dropped across demotions
	Promoted   bool   `json:"promoted"`   // this replica took leadership; the loop stopped
	LastSeq    uint64 `json:"last_seq"`   // local commit position
	LeaderSeq  uint64 `json:"leader_seq"` // highest seq the leader has shown us
	LagSeqs    int64  `json:"lag_seqs"`   // leader_seq - last_seq at the last stream event
	LastError  string `json:"last_error,omitempty"`
}

// NewFollower wires a replication loop from leader (a base URL like
// http://host:8080) into mgr, and puts mgr in the read-only posture: a
// follower's state comes from the leader's commit stream, and a direct
// write it acked would be overwritten by the leader's entry at the same
// seq. The loop registers on mgr, whose Promote stops it and lifts the
// posture and whose stats report it. Start the loop with Run.
func NewFollower(mgr *Manager, leader string, opts FollowerOptions) (*Follower, error) {
	u, err := url.Parse(leader)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: follower leader URL %q: not an absolute http(s) URL", leader)
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 15 * time.Second}}
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = defaultWatchHeartbeat
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 4 * opts.Heartbeat
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 500 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	mgr.readOnly.Store(true)
	// Rejected writers should learn where the leader is.
	mgr.leaderHint.Store(leader)
	reg := mgr.Metrics()
	f := &Follower{
		mgr: mgr, leader: leader, opts: opts,
		lagGauge: reg.Gauge("ftnet_replication_lag_seqs",
			"Sequence numbers the local replica trails the leader's stream by."),
		ageHist: reg.Histogram("ftnet_replication_entry_age_seconds",
			"Age of each applied entry: leader commit wall-clock to local apply."),
	}
	mgr.follower.Store(f)
	return f, nil
}

// observeStream records the replication-lag metrics after one stream
// event: seq is the leader position the event revealed, and ts (when
// non-zero) the leader's commit wall-clock for an entry just applied.
func (f *Follower) observeStream(seq uint64, ts int64) {
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur || f.leaderSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	f.lagGauge.Set(int64(f.leaderSeq.Load()) - int64(f.mgr.pipe.log.LastSeq()))
	if ts > 0 {
		f.ageHist.Observe(time.Duration(time.Now().UnixNano() - ts))
	}
}

// Stats returns the replication loop's counters.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Leader:     f.leader,
		Connected:  f.connected.Load(),
		Entries:    f.entries.Load(),
		Heartbeats: f.heartbeats.Load(),
		Reconnects: f.reconnects.Load(),
		Resyncs:    f.resyncs.Load(),
		Demotions:  f.demotions.Load(),
		Discarded:  f.discarded.Load(),
		Promoted:   f.promoted.Load(),
		LastSeq:    f.mgr.pipe.log.LastSeq(),
		LeaderSeq:  f.leaderSeq.Load(),
	}
	st.LagSeqs = f.lagGauge.Value()
	if p := f.lastErr.Load(); p != nil {
		st.LastError = *p
	}
	return st
}

// Run drives the replication loop until ctx is canceled (returning the
// context's error) or the follower is promoted (returning nil). Every
// stream error is recorded, retried after a jittered exponential
// backoff, and a stream that connects resets the backoff ladder.
func (f *Follower) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	f.runMu.Lock()
	f.runCancel = cancel
	f.runDone = done
	f.runMu.Unlock()
	defer close(done)
	backoff := f.opts.Backoff
	for {
		if f.promoted.Load() {
			return nil
		}
		before := f.reconnects.Load()
		err := f.streamFrom(ctx, f.mgr.NextSeq())
		f.connected.Store(false)
		if f.promoted.Load() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if f.reconnects.Load() > before {
			backoff = f.opts.Backoff // the stream connected; start the ladder over
		}
		if err != nil {
			msg := err.Error()
			f.lastErr.Store(&msg)
			f.opts.Logf("follower: stream from %s: %v (reconnecting in ~%s)", f.leader, err, backoff)
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff = min(backoff*2, max(backoffMax, f.opts.Backoff))
	}
}

// jitter spreads a backoff pause over [d/2, 3d/2) so a fleet of
// reconnecting followers desynchronizes instead of retrying in
// lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// halt is the follower's half of Manager.Promote: stop opening new
// streams, cut the in-flight one, and wait (as long as ctx allows) for
// the loop to drain — every received entry is applied synchronously, so
// a drained loop means the local log is at its final replicated
// position. Safe whether or not Run is active.
func (f *Follower) halt(ctx context.Context) error {
	f.promoted.Store(true)
	f.runMu.Lock()
	cancel, done := f.runCancel, f.runDone
	f.runMu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// settle ends what halt began: the promotion took and the loop stays
// stopped, or it failed and a later Run may follow again.
func (f *Follower) settle(term uint64, err error) {
	f.promoted.Store(err == nil)
	if err == nil {
		f.opts.Logf("follower: promoted to leader at term %d (seq %d)", term, f.mgr.pipe.log.LastSeq())
	}
}

// reset is the one answer to a local log that cannot be trusted — we are
// a deposed leader holding a suffix past the new leader's fence, the
// upstream log ends before our position (416), or its stream stepped past
// the seq we expect: wipe to the empty replica at seq 0, term 0, and let
// the ordinary loop reconnect from seq 1 (after its backoff, which is what
// keeps a reset that keeps recurring from spinning). Until the stream has
// caught up the replica serves nothing it cannot prove.
func (f *Follower) reset(why string) error {
	f.resyncs.Add(1)
	if err := f.mgr.resetFromCheckpoint(0, 0, nil); err != nil {
		return fmt.Errorf("fleet: follower: reset: %w", err)
	}
	return fmt.Errorf("fleet: follower: %s: local log reset, resynchronizing from seq 1", why)
}

// streamFrom opens one watch connection at from, the local resume
// position, and applies entries until it breaks.
func (f *Follower) streamFrom(ctx context.Context, from uint64) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	u := fmt.Sprintf("%s/v1/watch?from=%d&heartbeat=%s", f.leader, from, f.opts.Heartbeat)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// The term handshake, before any entry is consumed. The leader
	// advertises its term (and the seq of the fence that set it) on
	// every watch response; comparing against local state classifies
	// the connection:
	//
	//   - leader term < ours: the upstream is itself a stale leader
	//     (deposed but not yet demoted). Never follow it — back off and
	//     retry; it will demote or the config will change.
	//     This is decided before any reset below: a replica never
	//     discards state on the word of an upstream below its own term.
	//   - leader term > ours AND our log extends past the fence seq: WE
	//     are the deposed leader, holding a suffix that was acked
	//     locally but never replicated before the promotion. Demote:
	//     count the suffix and reset, so the promoted leader's history
	//     lands bit-identically.
	//   - otherwise: normal lag; any term bump arrives in-stream and
	//     re-commits through the local term chain.
	var leaderTerm, leaderTermSeq uint64
	if ts := resp.Header.Get("X-Ftnet-Term"); ts != "" {
		leaderTerm, err = strconv.ParseUint(ts, 10, 64)
		if err != nil {
			return fmt.Errorf("fleet: follower: bad X-Ftnet-Term %q: %v", ts, err)
		}
		leaderTermSeq, _ = strconv.ParseUint(resp.Header.Get("X-Ftnet-Term-Seq"), 10, 64)
		localTerm, _ := f.mgr.pipe.log.Term()
		if leaderTerm < localTerm {
			return errorf(ErrStaleTerm,
				"fleet: follower: refusing stream from %s: it advertises term %d below local term %d (stale leader)",
				f.leader, leaderTerm, localTerm)
		}
		if leaderTerm > localTerm && leaderTermSeq > 0 && from > leaderTermSeq {
			dropped := from - leaderTermSeq
			f.demotions.Add(1)
			f.discarded.Add(dropped)
			return f.reset(fmt.Sprintf("deposed by term %d (fenced at seq %d): discarding %d un-replicated local entries",
				leaderTerm, leaderTermSeq, dropped))
		}
	}
	if resp.StatusCode == http.StatusRequestedRangeNotSatisfiable {
		// It restarted with less history than we replicated.
		return f.reset(fmt.Sprintf("local seq %d is beyond the end of the leader's log", from-1))
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: follower: leader returned status %d", resp.StatusCode)
	}
	f.reconnects.Add(1)
	f.connected.Store(true)
	f.opts.Logf("follower: streaming from %s (from seq %d)", f.leader, from)

	// The stall watchdog: any line (entry or heartbeat) rearms it; a
	// silent connection is cut and the outer loop reconnects-resumes.
	stall := time.AfterFunc(f.opts.StallTimeout, cancel)
	defer stall.Stop()

	// Checkpoint staging: "checkpoint" entries arrive as a group, all
	// carrying the seq they cover; the reset is applied when the group
	// ends (the first ordinary entry, or a heartbeat).
	var staged []journal.Record
	var stagedSeq uint64
	applyStaged := func() error {
		if staged == nil {
			return nil
		}
		// The checkpoint group carries the leader's state at stagedSeq.
		// The term in force THERE is the advertised one only if the
		// fence that set it lies inside the checkpointed prefix; a
		// fence in the suffix arrives in-stream after the group, and
		// adopting its term early would make that bump look stale. In
		// that case keep the local term — a chain-safe lower bound,
		// since terms are monotone in seq and our old position was
		// behind the checkpoint.
		cpTerm := leaderTerm
		if leaderTermSeq > stagedSeq {
			cpTerm, _ = f.mgr.pipe.log.Term()
		}
		if err := f.mgr.resetFromCheckpoint(stagedSeq, cpTerm, staged); err != nil {
			return err
		}
		f.opts.Logf("follower: installed checkpoint of %d instances at seq %d", len(staged), stagedSeq)
		staged = nil
		return nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		stall.Reset(f.opts.StallTimeout)
		var we WatchEntry
		if err := json.Unmarshal(sc.Bytes(), &we); err != nil {
			return fmt.Errorf("fleet: follower: bad watch line %q: %v", sc.Text(), err)
		}
		if we.Heartbeat {
			f.heartbeats.Add(1)
			if err := applyStaged(); err != nil {
				return err
			}
			// An idle heartbeat still reveals the leader's position: a
			// lag that persists across heartbeats is real, not in-flight.
			f.observeStream(we.Seq, 0)
			continue
		}
		e, err := we.Entry()
		if err != nil {
			return err
		}
		if e.Rec.Op == journal.OpCheckpoint {
			if staged == nil || e.Seq != stagedSeq {
				staged, stagedSeq = []journal.Record{}, e.Seq
			}
			staged = append(staged, e.Rec)
			f.entries.Add(1)
			continue
		}
		if err := applyStaged(); err != nil {
			return err
		}
		if err := f.mgr.replicateEntry(e); err != nil {
			if errors.Is(err, errSeqGap) {
				return f.reset(err.Error())
			}
			return err
		}
		f.entries.Add(1)
		f.observeStream(e.Seq, e.At)
	}
	if err := applyStaged(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("fleet: follower: leader closed the stream")
}
