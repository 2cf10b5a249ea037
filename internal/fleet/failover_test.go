package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// journalImage syncs a live manager's journal and returns its bytes.
func journalImage(t *testing.T, m *Manager) []byte {
	t.Helper()
	w := m.pipe.log.Writer()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// toggleStorm commits 2n guaranteed-accepted transitions by toggling
// one node of a dedicated instance — random storms saturate the fault
// budget and stop committing, but fault-then-repair pairs always
// advance the log, which is what materializing divergence needs.
func toggleStorm(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Event(id, Event{Kind: EventFault, Node: 0}); err != nil {
			t.Fatalf("toggle fault %d: %v", i, err)
		}
		if _, err := m.Event(id, Event{Kind: EventRepair, Node: 0}); err != nil {
			t.Fatalf("toggle repair %d: %v", i, err)
		}
	}
}

func awaitDemotions(t *testing.T, f *Follower, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for f.Stats().Demotions < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower demoted %d times, want %d, within %v", f.Stats().Demotions, want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPromoteFailoverAndDeposedLeaderSelfHeals is the in-process
// partition-torture sequence: a follower is cut off mid-storm, the
// leader keeps acknowledging writes (divergence), dies, the follower
// is promoted over POST /v1/promote, and the deposed leader — rebooted
// from its own journal, following the new leader — must detect the
// higher term, discard its unreplicated tail, resync bit-identically,
// and refuse every direct write.
func TestPromoteFailoverAndDeposedLeaderSelfHeals(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	ts := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(ts.Close)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}
	_, nHost := spec.Sizes()
	// "div" stays out of the random storms so its toggle writes are
	// always accepted — the divergence generator.
	ids := []string{"a", "b", "c", "div"}
	stormIDs := ids[:3]
	acked := make(map[string]*atomic.Uint64)
	for _, id := range ids {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		acked[id] = new(atomic.Uint64)
	}
	stormLeader(leader, stormIDs, nHost, 4, 20, acked)

	// The follower, with its own HTTP surface so promotion travels the
	// real route, and its loop run here so the partition can cut it alone.
	fd := bootDaemon(t, DaemonConfig{Follow: ts.URL})
	fm, f := fd.mgr, fd.follower
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	fdone := make(chan struct{})
	go func() { defer close(fdone); f.Run(fctx) }()
	tsB := httptest.NewServer(NewHTTPHandler(fm))
	t.Cleanup(tsB.Close)
	waitConverged(t, leader, fm, 15*time.Second)

	// Partition: the follower's stream is cut; the leader keeps
	// acknowledging writes no replica sees.
	fcancel()
	<-fdone
	stormLeader(leader, stormIDs, nHost, 4, 20, acked)
	toggleStorm(t, leader, "div", 20)
	divergedSeq := leader.pipe.log.LastSeq()
	if divergedSeq <= fm.pipe.log.LastSeq() {
		t.Fatalf("no divergence materialized: leader at %d, follower at %d",
			divergedSeq, fm.pipe.log.LastSeq())
	}

	// Kill the leader, keeping its disk image for the rejoin.
	image := journalImage(t, leader)
	ts.Close()
	leader.Close()

	// Failover: promote the follower through the API.
	resp, err := http.Post(tsB.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Term == 0 || pr.WasLeader {
		t.Fatalf("promote: status %d, response %+v", resp.StatusCode, pr)
	}
	if fm.readOnly.Load() {
		t.Fatal("promoted replica still read-only")
	}
	if term, _ := fm.pipe.log.Term(); term != pr.Term {
		t.Fatalf("manager term %d, promote reported %d", term, pr.Term)
	}
	// Promotion is idempotent: a second request reports the term in
	// force instead of bumping again.
	resp, err = http.Post(tsB.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr2 PromoteResponse
	json.NewDecoder(resp.Body).Decode(&pr2)
	resp.Body.Close()
	if !pr2.WasLeader || pr2.Term != pr.Term {
		t.Fatalf("second promote: %+v, want WasLeader at term %d", pr2, pr.Term)
	}

	// The new leader moves on past the failover.
	stormLeader(fm, stormIDs, nHost, 4, 20, acked)
	toggleStorm(t, fm, "div", 10)

	// Rejoin: the deposed leader reboots from its own journal — its
	// recovered tail includes entries the new leader never saw — and
	// follows the new leader.
	dd := rebootDaemon(t, image, DaemonConfig{Follow: tsB.URL})
	dm, f2 := dd.mgr, dd.follower
	if dm.pipe.log.LastSeq() != divergedSeq {
		t.Fatalf("deposed leader recovered to seq %d, want %d", dm.pipe.log.LastSeq(), divergedSeq)
	}
	runDaemon(t, dd, nil, Plane{})
	awaitDemotions(t, f2, 1, 15*time.Second)
	waitConverged(t, fm, dm, 15*time.Second)
	checkFleet(t, dm, stateOf(t, fm))
	st := f2.Stats()
	if st.Demotions != 1 {
		t.Errorf("demotions = %d, want exactly 1", st.Demotions)
	}
	if st.Discarded == 0 {
		t.Error("the deposed leader's unreplicated tail was not counted as discarded")
	}
	if term, _ := dm.pipe.log.Term(); term != pr.Term {
		t.Errorf("rejoined replica at term %d, leader at %d", term, pr.Term)
	}

	// Fencing: the deposed leader must refuse direct writes.
	if _, err := dm.EventBatch(ids[0], []Event{{Kind: EventFault, Node: 0}}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("stale-term write on the deposed leader: err = %v, want ErrReadOnly", err)
	}
	if !dm.readOnly.Load() {
		t.Error("deposed leader left read-only posture")
	}
}

// TestDeposedLeaderResyncsFromCheckpointAfterTermBump is the
// compaction × failover interaction: the new leader compacts after its
// promotion, so the rejoining deposed leader cannot replay history —
// it must resync from a checkpoint whose seq-base record carries the
// new term. The result must be bit-identical to the promoted leader
// (checkFleet re-verifies every phi slice against a fresh
// recomputation), and a restart of the rejoined replica must recover
// the new term from its own journal without spuriously re-demoting.
func TestDeposedLeaderResyncsFromCheckpointAfterTermBump(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	ts := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(ts.Close)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	_, nHost := spec.Sizes()
	ids := []string{"a", "b", "div"}
	stormIDs := ids[:2]
	acked := make(map[string]*atomic.Uint64)
	for _, id := range ids {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		acked[id] = new(atomic.Uint64)
	}
	stormLeader(leader, stormIDs, nHost, 2, 20, acked)

	fd := bootDaemon(t, DaemonConfig{Follow: ts.URL})
	fm, f := fd.mgr, fd.follower
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	fdone := make(chan struct{})
	go func() { defer close(fdone); f.Run(fctx) }()
	tsB := httptest.NewServer(NewHTTPHandler(fm))
	t.Cleanup(tsB.Close)
	waitConverged(t, leader, fm, 15*time.Second)

	// Partition, diverge, kill.
	fcancel()
	<-fdone
	toggleStorm(t, leader, "div", 20)
	image := journalImage(t, leader)
	ts.Close()
	leader.Close()

	// Promote, write past the bump, then compact: the checkpoint's
	// seq-base record is now the only carrier of the term across a
	// fresh catch-up.
	term, err := fm.Promote(context.Background(), 0)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	toggleStorm(t, fm, "div", 10)
	if _, err := fm.Compact(); err != nil {
		t.Fatal(err)
	}
	toggleStorm(t, fm, "div", 3) // a short post-compaction suffix

	// The deposed leader rejoins past the compaction horizon.
	dd := rebootDaemon(t, image, DaemonConfig{Follow: tsB.URL})
	runDaemon(t, dd, nil, Plane{})
	dm, f2 := dd.mgr, dd.follower
	awaitDemotions(t, f2, 1, 15*time.Second)
	waitConverged(t, fm, dm, 15*time.Second)
	checkFleet(t, dm, stateOf(t, fm))
	st := f2.Stats()
	if st.Demotions != 1 || st.Resyncs == 0 {
		t.Errorf("stats %+v: want 1 demotion and >= 1 resync (checkpoint catch-up)", st)
	}
	if got, _ := dm.pipe.log.Term(); got != term {
		t.Errorf("rejoined replica at term %d, want %d", got, term)
	}

	// A restart of the rejoined replica recovers the adopted term from
	// its own journal: the chain check passes and no re-demotion would
	// trigger (its term matches the leader's).
	image2 := journalImage(t, dm)
	dm2 := rebootDaemon(t, image2, DaemonConfig{}).mgr
	if got, _ := dm2.pipe.log.Term(); got != term {
		t.Errorf("restarted replica recovered term %d, want %d", got, term)
	}
	checkFleet(t, dm2, stateOf(t, fm))
}

// TestReconnectJitterBounds pins the reconnect backoff's jitter range:
// [d/2, 3d/2) — enough spread that a fleet of followers losing one
// leader does not reconnect in lockstep, never less than half the
// ladder value.
func TestReconnectJitterBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
		}
	}
}

// TestManagerPromoteAndTermFence pins the manager-level contract:
// read-only posture refuses mutations with ErrReadOnly (carrying the
// leader hint), Promote opens the write path and fences the term, and
// a bump that does not move the term forward fails with ErrStaleTerm.
func TestManagerPromoteAndTermFence(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	if _, err := m.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}

	m.readOnly.Store(true)
	m.leaderHint.Store("http://leader:8080")
	if _, err := m.Create("b", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create in read-only posture: %v, want ErrReadOnly", err)
	}
	_, err := m.EventBatch("a", []Event{{Kind: EventFault, Node: 1}})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("event batch in read-only posture: %v, want ErrReadOnly", err)
	}
	if !strings.Contains(fmt.Sprint(err), "http://leader:8080") {
		t.Errorf("rejection %q does not carry the leader hint", err)
	}

	term, err := m.Promote(context.Background(), 0)
	if err != nil || term != 1 {
		t.Fatalf("Promote(0) = %d, %v, want term 1", term, err)
	}
	if m.readOnly.Load() {
		t.Fatal("promotion left read-only posture in place")
	}
	if _, err := m.EventBatch("a", []Event{{Kind: EventFault, Node: 1}}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}

	// The fence: terms only move forward.
	if _, err := m.Promote(context.Background(), 1); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("Promote(1) at term 1: %v, want ErrStaleTerm", err)
	}
	if term, err = m.Promote(context.Background(), 5); err != nil || term != 5 {
		t.Fatalf("Promote(5) = %d, %v", term, err)
	}
	if got, _ := m.pipe.log.Term(); got != 5 {
		t.Fatalf("term = %d, want 5", got)
	}
	// The failed bump consumed no sequence number and the stats surface
	// reports the fence.
	st := m.Stats()
	if st.Commit.Term != 5 {
		t.Errorf("stats term %d, want 5", st.Commit.Term)
	}
}

// followingReplica boots a memory-only manager following leaderURL and
// returns it with its loop and a channel that closes when Run returns.
func followingReplica(t *testing.T, leaderURL string) (*Manager, *Follower, <-chan struct{}) {
	t.Helper()
	fm := NewManager(Options{})
	t.Cleanup(func() { fm.Close() })
	f, err := NewFollower(fm, leaderURL, FollowerOptions{
		Heartbeat: 50 * time.Millisecond, Backoff: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ended := make(chan struct{})
	go func() { defer close(ended); f.Run(ctx) }()
	return fm, f, ended
}

// TestPromoteStopsFollowing is the promotion hole: a replica wired with
// nothing but NewFollower + Run + NewHTTPHandler — the only wiring a
// facade user can build — is promoted, and the old leader, still alive,
// keeps committing. The promoted replica's loop must have ended before
// the fence was committed: its log ends at the fence, and nothing the old
// leader sends afterwards is applied or swallowed behind it. (Unfixed,
// the loop kept running: the old leader's first entry was dropped as a
// duplicate of the fence's seq and its second committed at seq 5, a
// term-0 write inside term-1 history.)
func TestPromoteStopsFollowing(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	for name, promote := range map[string]func(fm *Manager, url string) (uint64, error){
		"POST /v1/promote": func(_ *Manager, url string) (uint64, error) {
			pr, err := Client{HTTP: http.DefaultClient, Base: url}.Promote()
			return pr.Term, err
		},
		"Manager.Promote": func(fm *Manager, _ string) (uint64, error) {
			return fm.Promote(context.Background(), 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			leader := NewManager(Options{})
			defer leader.Close()
			lts := httptest.NewServer(NewHTTPHandler(leader))
			t.Cleanup(lts.Close)
			for _, id := range []string{"a", "b"} {
				if _, err := leader.Create(id, spec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := leader.Event("a", Event{Kind: EventFault, Node: 1}); err != nil {
				t.Fatal(err)
			}
			fm, f, ended := followingReplica(t, lts.URL)
			fts := httptest.NewServer(NewHTTPHandler(fm))
			t.Cleanup(fts.Close)
			waitConverged(t, leader, fm, 15*time.Second)

			term, err := promote(fm, fts.URL)
			if err != nil || term != 1 {
				t.Fatalf("promote = term %d, %v, want term 1", term, err)
			}
			select {
			case <-ended:
			default:
				t.Fatal("the replication loop is still running after the promotion returned")
			}
			if st := f.Stats(); !st.Promoted || st.Connected {
				t.Errorf("follower stats %+v, want promoted and disconnected", st)
			}
			_, fence := fm.pipe.log.Term()
			if fence != 4 || fm.NextSeq() != 5 {
				t.Fatalf("fence at seq %d, next seq %d, want 4 and 5", fence, fm.NextSeq())
			}

			// The old leader commits one entry per instance, at the fence's
			// seq and the one after it.
			for _, id := range []string{"a", "b"} {
				if _, err := leader.Event(id, Event{Kind: EventFault, Node: 2}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(100 * time.Millisecond) // two heartbeats of a stream that must not exist
			if fm.NextSeq() != 5 {
				t.Errorf("the promoted replica's log moved to next seq %d behind its fence at 4", fm.NextSeq())
			}
			for id, want := range map[string]uint64{"a": 1, "b": 0} {
				if got := mustGet(t, fm, id).Snapshot().Epoch(); got != want {
					t.Errorf("%s at epoch %d on the promoted replica, want %d (the old leader's write landed)", id, got, want)
				}
			}
		})
	}
}

// TestRacingPromotionsCommitOneFence races two promotions of a following
// replica: the loop ends once, exactly one fence is committed, and the
// promotion that lost the race finds it in force.
func TestRacingPromotionsCommitOneFence(t *testing.T) {
	leader := NewManager(Options{})
	defer leader.Close()
	lts := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(lts.Close)
	if _, err := leader.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	fm, f, ended := followingReplica(t, lts.URL)
	waitConverged(t, leader, fm, 15*time.Second)

	type outcome struct {
		term uint64
		err  error
	}
	out := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			term, err := fm.Promote(context.Background(), 0)
			out <- outcome{term, err}
		}()
	}
	for i := 0; i < 2; i++ {
		if o := <-out; o.err != nil || o.term != 1 {
			t.Errorf("racing promotion = term %d, %v, want term 1 from both", o.term, o.err)
		}
	}
	select {
	case <-ended:
	case <-time.After(15 * time.Second):
		t.Fatal("the replication loop is still running after both promotions returned")
	}
	if term, fence := fm.pipe.log.Term(); term != 1 || fence != 2 || fm.NextSeq() != 3 {
		t.Errorf("term %d fenced at seq %d, next seq %d: want one fence, term 1 at seq 2", term, fence, fm.NextSeq())
	}
	if !f.Stats().Promoted || fm.readOnly.Load() {
		t.Errorf("promoted %v, read-only %v after the race", f.Stats().Promoted, fm.readOnly.Load())
	}
}

// TestFollowerResetsOnlyOnTheWordOfItsLeader swaps the upstream behind a
// follower's URL for one with a shorter log — a leader that restarted
// with less history than the replica holds, so the resume position is
// past its end (416). At the replica's own term that is a reason to
// distrust the local log: it resets and ends bit-identical to the
// upstream, holding nothing the upstream never had. (Unfixed, the
// "resync" streamed from 0, skipped both entries as duplicates and kept
// serving the old fault set.) Below the replica's term the upstream is a
// stale leader: the stream is refused before any reset is considered and
// the replica's fleet is untouched.
func TestFollowerResetsOnlyOnTheWordOfItsLeader(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	for name, tc := range map[string]struct {
		term      uint64 // the first upstream's term, which the replica adopts
		wantReset bool
	}{
		"416 at our term resets":      {term: 0, wantReset: true},
		"416 below our term is stale": {term: 2, wantReset: false},
	} {
		t.Run(name, func(t *testing.T) {
			var upstream atomic.Pointer[http.Handler]
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				(*upstream.Load()).ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			serve := func(m *Manager) {
				h := NewHTTPHandler(m)
				upstream.Store(&h)
				ts.CloseClientConnections()
			}

			first := NewManager(Options{})
			defer first.Close()
			if tc.term > 0 {
				if _, err := first.Promote(context.Background(), tc.term); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := first.Create("a", spec); err != nil {
				t.Fatal(err)
			}
			for node := 1; node <= 3; node++ {
				if _, err := first.Event("a", Event{Kind: EventFault, Node: node}); err != nil {
					t.Fatal(err)
				}
			}
			serve(first)
			fm, f, _ := followingReplica(t, ts.URL)
			waitConverged(t, first, fm, 15*time.Second)
			checkFleet(t, fm, stateOf(t, first))

			// The upstream comes back with two entries and term 0.
			second := NewManager(Options{})
			defer second.Close()
			if _, err := second.Create("a", spec); err != nil {
				t.Fatal(err)
			}
			if _, err := second.Event("a", Event{Kind: EventFault, Node: 7}); err != nil {
				t.Fatal(err)
			}
			serve(second)

			if tc.wantReset {
				deadline := time.Now().Add(15 * time.Second)
				for f.Stats().Resyncs == 0 || fm.NextSeq() != second.NextSeq() {
					if time.Now().After(deadline) {
						t.Fatalf("replica never reset onto the shorter upstream: stats %+v, next seq %d", f.Stats(), fm.NextSeq())
					}
					time.Sleep(2 * time.Millisecond)
				}
				checkFleet(t, fm, stateOf(t, second))
				if got := f.Stats().Resyncs; got != 1 {
					t.Errorf("resyncs = %d, want 1", got)
				}
				return
			}
			deadline := time.Now().Add(15 * time.Second)
			for !strings.Contains(f.Stats().LastError, "stale leader") {
				if time.Now().After(deadline) {
					t.Fatalf("the stale upstream was never refused: stats %+v", f.Stats())
				}
				time.Sleep(2 * time.Millisecond)
			}
			checkFleet(t, fm, stateOf(t, first))
			if st := f.Stats(); st.Resyncs != 0 || fm.NextSeq() != first.NextSeq() {
				t.Errorf("a stale upstream moved the replica: stats %+v, next seq %d", st, fm.NextSeq())
			}
		})
	}
}
