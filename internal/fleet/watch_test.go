package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/journal"
)

// waitConverged blocks until the follower's commit position reaches
// the leader's current one.
func waitConverged(t *testing.T, leader, follower *Manager, timeout time.Duration) {
	t.Helper()
	target := leader.pipe.log.LastSeq()
	deadline := time.Now().Add(timeout)
	for follower.pipe.log.LastSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower at seq %d, leader at %d after %v",
				follower.pipe.log.LastSeq(), target, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stormLeader drives random atomic bursts into the leader from several
// goroutines, recording the highest acknowledged epoch per instance.
func stormLeader(m *Manager, ids []string, nHost, writers, perWriter int, acked map[string]*atomic.Uint64) {
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWriter; i++ {
				id := ids[rng.Intn(len(ids))]
				n := 1 + rng.Intn(3)
				events := make([]Event, n)
				for j := range events {
					kind := EventFault
					if rng.Intn(2) == 0 {
						kind = EventRepair
					}
					events[j] = Event{Kind: kind, Node: rng.Intn(nHost)}
				}
				if res, err := m.EventBatch(id, events); err == nil {
					for {
						cur := acked[id].Load()
						if res.Epoch <= cur || acked[id].CompareAndSwap(cur, res.Epoch) {
							break
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFollowerConvergesUnderWriteStorm is the replication acceptance
// check: a follower started mid-storm converges — every acknowledged
// epoch is present on the follower with a bit-identical phi slice —
// with gap-free, in-order replication (any gap or reorder would fail
// the follower's strict seq/epoch checks and show up as a resync).
func TestFollowerConvergesUnderWriteStorm(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	ts := httptest.NewServer(NewHTTPHandler(leader))
	// Cleanup order (LIFO): the follower's context cancel runs first,
	// ending its watch request, so Close does not wait on a live stream.
	t.Cleanup(ts.Close)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}
	_, nHost := spec.Sizes()
	ids := make([]string, 3)
	acked := make(map[string]*atomic.Uint64)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%d", i)
		if _, err := leader.Create(ids[i], spec); err != nil {
			t.Fatal(err)
		}
		acked[ids[i]] = new(atomic.Uint64)
	}

	// First third of the storm before the follower exists: it must
	// catch up from the journal, then tail the live remainder.
	stormLeader(leader, ids, nHost, 4, 20, acked)

	fm, f := startFollower(t, ts.URL)

	stormLeader(leader, ids, nHost, 4, 40, acked)

	waitConverged(t, leader, fm, 15*time.Second)
	checkFleet(t, fm, stateOf(t, leader))
	for id, a := range acked {
		if got := mustGet(t, fm, id).Snapshot().Epoch(); got < a.Load() {
			t.Errorf("%s: follower epoch %d below acknowledged %d", id, got, a.Load())
		}
	}
	st := f.Stats()
	if st.Resyncs != 0 {
		t.Errorf("follower needed %d resyncs during a plain storm", st.Resyncs)
	}
	if st.Entries == 0 || st.LastSeq != leader.pipe.log.LastSeq() {
		t.Errorf("follower stats %+v, leader seq %d", st, leader.pipe.log.LastSeq())
	}

	// The follower's own journal restarts it to the same state (read
	// from a synced copy: the live writer still owns the file).
	fw := fm.pipe.log.Writer()
	if err := fw.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fw.Path())
	if err != nil {
		t.Fatal(err)
	}
	fm2 := NewManager(Options{})
	if _, err := fm2.Recover(bytes.NewReader(data)); err != nil {
		t.Fatalf("follower journal replay: %v", err)
	}
	checkFleet(t, fm2, stateOf(t, fm))
}

// abortingHandler wraps a handler and kills every /v1/watch response
// after budget bytes — a torn stream, mid-line more often than not.
func abortingHandler(h http.Handler, budget int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/watch") {
			var used atomic.Int64
			w = &abortWriter{ResponseWriter: w, used: &used, budget: budget}
		}
		h.ServeHTTP(w, r)
	})
}

type abortWriter struct {
	http.ResponseWriter
	used   *atomic.Int64
	budget int64
}

func (a *abortWriter) Write(p []byte) (int, error) {
	if a.used.Add(int64(len(p))) > a.budget {
		panic(http.ErrAbortHandler) // close the connection mid-stream
	}
	return a.ResponseWriter.Write(p)
}

func (a *abortWriter) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFollowerResumesTornStream cuts the leader connection every ~2KB:
// the follower must reconnect, resume by sequence number (no resync,
// no duplicate application — its strict epoch chain would reject one),
// and still converge bit-identically.
func TestFollowerResumesTornStream(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	ts := httptest.NewServer(abortingHandler(NewHTTPHandler(leader), 2048))
	t.Cleanup(ts.Close)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 6}
	_, nHost := spec.Sizes()
	ids := []string{"a", "b"}
	acked := make(map[string]*atomic.Uint64)
	for _, id := range ids {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		acked[id] = new(atomic.Uint64)
	}

	fm, f := startFollower(t, ts.URL)

	stormLeader(leader, ids, nHost, 4, 100, acked)

	waitConverged(t, leader, fm, 20*time.Second)
	checkFleet(t, fm, stateOf(t, leader))
	st := f.Stats()
	if st.Reconnects < 2 {
		t.Errorf("stream was cut every 2KB but the follower reconnected only %d times", st.Reconnects)
	}
	if st.Resyncs != 0 {
		t.Errorf("torn streams must resume by seq, not resync (%d resyncs)", st.Resyncs)
	}
}

// TestFreshFollowerAfterCompactionReplaysBounded is the compaction
// acceptance check: after the leader compacts, a freshly started
// follower replays only the bounded checkpoint+suffix — strictly fewer
// records than a follower that replayed the full history — and ends
// bit-identical anyway.
func TestFreshFollowerAfterCompactionReplaysBounded(t *testing.T) {
	leader := bootDaemon(t, DaemonConfig{}).mgr
	ts := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(ts.Close)

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	_, nHost := spec.Sizes()
	ids := []string{"a", "b", "c"}
	acked := make(map[string]*atomic.Uint64)
	for _, id := range ids {
		if _, err := leader.Create(id, spec); err != nil {
			t.Fatal(err)
		}
		acked[id] = new(atomic.Uint64)
	}
	stormLeader(leader, ids, nHost, 2, 30, acked)

	// Follower A replays the full history.
	fmA, fA := startFollower(t, ts.URL)
	waitConverged(t, leader, fmA, 15*time.Second)
	fullReplay := fA.Stats().Entries
	preCompaction := leader.pipe.log.LastSeq()
	if fullReplay != preCompaction {
		t.Fatalf("follower A received %d entries, leader committed %d", fullReplay, preCompaction)
	}

	if _, err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	// A short suffix after the compaction.
	stormLeader(leader, ids, nHost, 2, 5, acked)

	// Follower B starts fresh: checkpoint + suffix only.
	fmB, fB := startFollower(t, ts.URL)
	waitConverged(t, leader, fmB, 15*time.Second)
	waitConverged(t, leader, fmA, 15*time.Second) // A rides through the compaction live

	boundedReplay := fB.Stats().Entries
	suffix := leader.pipe.log.LastSeq() - preCompaction
	if boundedReplay >= preCompaction+suffix {
		t.Errorf("fresh follower replayed %d records, no fewer than the %d of full history",
			boundedReplay, preCompaction+suffix)
	}
	if want := uint64(len(ids)) + suffix; boundedReplay != want {
		t.Errorf("fresh follower replayed %d records, want checkpoint(%d)+suffix(%d)",
			boundedReplay, len(ids), suffix)
	}
	checkFleet(t, fmB, stateOf(t, leader))
	checkFleet(t, fmA, stateOf(t, leader))

	// And a leader restart replays the same bounded log (from a synced
	// copy: the live writer still owns the file).
	lw := leader.pipe.log.Writer()
	if err := lw.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(lw.Path())
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Options{})
	st, err := m2.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Records) >= preCompaction+suffix {
		t.Errorf("leader restart replayed %d records, want fewer than %d", st.Records, preCompaction+suffix)
	}
	checkFleet(t, m2, stateOf(t, leader))
}

// TestWatchEndpointStreamsAndResumes drives the NDJSON surface
// directly, as curl would: catch-up entries, a live entry, heartbeats,
// resume via ?from, and 416 past the end.
func TestWatchEndpointStreamsAndResumes(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	ts := httptest.NewServer(NewHTTPHandler(m))
	defer ts.Close()

	if _, err := m.Create("prod", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EventBatch("prod", []Event{{EventFault, 3}, {EventFault, 7}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/watch?from=1&heartbeat=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	read := func() WatchEntry {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended: %v", sc.Err())
		}
		var we WatchEntry
		if err := json.Unmarshal(sc.Bytes(), &we); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		return we
	}
	if we := read(); we.Seq != 1 || we.Op != "create" || we.ID != "prod" || we.Spec == nil {
		t.Fatalf("entry 1: %+v", we)
	}
	we := read()
	if we.Seq != 2 || we.Op != "transition" || we.Epoch != 1 || fmt.Sprint(we.Faults) != "[3 7]" {
		t.Fatalf("entry 2: %+v", we)
	}
	// A live commit lands on the open stream.
	if _, err := m.Event("prod", Event{EventRepair, 3}); err != nil {
		t.Fatal(err)
	}
	if we := read(); we.Seq != 3 || we.Epoch != 2 {
		t.Fatalf("live entry: %+v", we)
	}
	// With nothing committed, heartbeats keep the stream alive.
	hb := read()
	for !hb.Heartbeat {
		hb = read()
	}
	if hb.Seq != 3 {
		t.Errorf("heartbeat carries seq %d, want 3", hb.Seq)
	}

	// Resume from the middle: exactly the suffix, no duplicates.
	resp2, err := http.Get(ts.URL + "/v1/watch?from=3&heartbeat=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	if !sc2.Scan() {
		t.Fatal("resume stream ended")
	}
	var we2 WatchEntry
	json.Unmarshal(sc2.Bytes(), &we2)
	if we2.Seq != 3 || we2.Op != "transition" {
		t.Fatalf("resume first entry: %+v", we2)
	}

	// Past the end: 416 with the next seq in the error.
	resp3, err := http.Get(ts.URL + "/v1/watch?from=99")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("from=99 status %d, want 416", resp3.StatusCode)
	}
}

// TestReadOnlyHandlerRejectsMutations pins the follower posture: the
// read-only handler 403s every mutating route but still serves reads
// and the watch stream.
func TestReadOnlyHandlerRejectsMutations(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	if _, err := m.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	m.readOnly.Store(true)
	ts := httptest.NewServer(NewHTTPHandler(m))
	defer ts.Close()

	resp, _ := http.Post(ts.URL+"/v1/instances", "application/json",
		strings.NewReader(`{"id":"x","spec":{"kind":"debruijn","m":2,"h":4,"k":2}}`))
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("create on follower: %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/v1/instances/a/events", "application/json",
		strings.NewReader(`{"kind":"fault","node":1}`))
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("event on follower: %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/instances/a/phi?x=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("lookup on follower: %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestReadOnlyRefusalIsTheManagers pins that there is one refusal: a JSON
// write to a read-only replica is refused by the Manager, not ahead of
// it — the client reads the Manager's own message with the leader hint,
// and rejected_read_only counts it as it counts a wire-plane refusal. An
// event for an id the replica does not hold is not a posture question:
// it answers 404, as on the wire plane.
func TestReadOnlyRefusalIsTheManagers(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	if _, err := m.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	m.readOnly.Store(true)
	m.leaderHint.Store("http://leader:8080")
	ts := httptest.NewServer(NewHTTPHandler(m))
	defer ts.Close()
	c := Client{HTTP: ts.Client(), Base: ts.URL}
	fault := Event{Kind: EventFault, Node: 1}
	_, direct := m.EventBatch("a", []Event{fault})
	for name, r := range map[string]struct {
		method, path string
		body         any
	}{
		"event":       {"POST", "/v1/instances/a/events", fault},
		"event batch": {"POST", "/v1/instances/a/events:batch", batchRequest{Events: []Event{fault, {Kind: EventFault, Node: 2}}}},
		"create":      {"POST", "/v1/instances", createRequest{ID: "b", Spec: spec}},
		"delete":      {"DELETE", "/v1/instances/a", nil},
	} {
		before := m.Stats().RejectedRO
		err := c.do(r.method, r.path, r.body, nil)
		if !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), "read-only replica (leader: http://leader:8080)") {
			t.Errorf("JSON %s on a read-only replica = %v, want the Manager's refusal (%v)", name, err, direct)
		}
		if got := m.Stats().RejectedRO - before; got != 1 {
			t.Errorf("JSON %s moved rejected_read_only by %d, want 1", name, got)
		}
	}
	if err := c.do("POST", "/v1/instances/nope/events", fault, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("JSON event for an unknown id on a read-only replica = %v, want ErrNotFound", err)
	}
}

// TestWatchEntryOps pins the op names of the watch stream: a name no op
// has is refused, and a seqbase entry, which parses, is refused by the
// follower, whose position does not move.
func TestWatchEntryOps(t *testing.T) {
	if _, err := (WatchEntry{Op: "snapshot"}).Entry(); err == nil {
		t.Error("an entry with an unknown op was accepted")
	}
	m := NewManager(Options{})
	seq := m.NextSeq()
	e, err := WatchEntry{Seq: seq, Op: journal.OpSeqBase.String(), ID: journal.SeqBaseID}.Entry()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.replicateEntry(e); err == nil || m.NextSeq() != seq {
		t.Fatalf("the follower took a seqbase entry: %v, next seq %d -> %d", err, seq, m.NextSeq())
	}
}
