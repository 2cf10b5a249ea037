package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/journal"
	sharding "ftnet/internal/shard"
)

// shardPair is a two-daemon cluster in one process: managers a and b
// with real journals and a shared two-member ring, whose calls to each
// other are served by the peer's real HTTP handler over net.
type shardPair struct {
	a, b  *Manager
	net   inProcess
	peers map[string]string
}

// inProcess is a Manager.peerTransport with no listener and no socket:
// each request is served by the handler of the host it names.
type inProcess map[string]http.Handler

func (n inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := n[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("inProcess: no daemon at %s", r.URL.Host)
	}
	if r.Body == nil {
		r.Body = http.NoBody
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Result(), nil
}

// roundTrip decorates a transport.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// newShardPair boots the pair; the topology is NOT installed yet, so
// tests can create instances anywhere first (the pre-sharding world).
func newShardPair(t *testing.T) *shardPair {
	t.Helper()
	p := &shardPair{
		a: bootDaemon(t, DaemonConfig{}).mgr,
		b: bootDaemon(t, DaemonConfig{}).mgr,
	}
	p.net = inProcess{"a.example": NewHTTPHandler(p.a), "b.example": NewHTTPHandler(p.b)}
	p.peers = map[string]string{"a": "http://a.example", "b": "http://b.example"}
	p.a.peerTransport, p.b.peerTransport = p.net, p.net
	return p
}

// listen puts the pair behind real HTTP servers, for a test that speaks
// HTTP to the daemons itself.
func (p *shardPair) listen(t *testing.T) {
	t.Helper()
	for name, m := range map[string]*Manager{"a": p.a, "b": p.b} {
		ts := httptest.NewServer(NewHTTPHandler(m))
		t.Cleanup(ts.Close)
		p.peers[name], m.peerTransport = ts.URL, nil
	}
}

func (p *shardPair) installTopology(t *testing.T) {
	t.Helper()
	p.a.SetTopology("a", p.peers, 0)
	p.b.SetTopology("b", p.peers, 0)
}

// idOwnedBy probes for an instance id the two-member ring assigns to
// the given member, so tests place instances deterministically.
func idOwnedBy(t *testing.T, member string) string {
	t.Helper()
	ring := sharding.New([]string{"a", "b"}, 0)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("inst-%d", i)
		if ring.Owner(id) == member {
			return id
		}
	}
	t.Fatalf("no probe id owned by %q", member)
	return ""
}

func phiSliceOf(t *testing.T, m *Manager, id string) []int {
	t.Helper()
	in, ok := m.Get(id)
	if !ok {
		t.Fatalf("no instance %q", id)
	}
	return phiOf(in)
}

func TestMigrateMovesInstanceBitIdentically(t *testing.T) {
	p := newShardPair(t)
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	stays, moves := idOwnedBy(t, "a"), idOwnedBy(t, "b")

	// Pre-sharding: both instances live on a, one of them with state.
	for _, id := range []string{stays, moves} {
		if _, err := p.a.Create(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []int{1, 5} {
		if _, err := p.a.Event(moves, Event{EventFault, node}); err != nil {
			t.Fatal(err)
		}
	}
	p.installTopology(t)
	// The displaced instance is held here, so fully served here until the
	// migration actually runs.
	if _, err := p.a.Lookup(moves, 0); err != nil {
		t.Fatalf("displaced instance unavailable pre-migration: %v", err)
	}
	if got := p.a.displaced(); len(got) != 1 || got[0] != moves {
		t.Fatalf("displaced = %v, want [%s]", got, moves)
	}

	stats, err := p.a.rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].ID != moves || stats[0].Peer != "b" {
		t.Fatalf("rebalance stats = %+v", stats)
	}
	if stats[0].Epoch != 2 {
		t.Errorf("handoff epoch = %d, want 2", stats[0].Epoch)
	}

	// The new owner answers bit-identically; the old owner redirects.
	checkFleet(t, p.b, map[string]expectedState{moves: {spec, 2, []int{1, 5}}})
	_, err = p.a.Lookup(moves, 0)
	if !errors.Is(err, ErrWrongShard) {
		t.Fatalf("old owner lookup err = %v, want ErrWrongShard", err)
	}
	if owner := WrongShardOwner(err); owner != p.peers["b"] {
		t.Errorf("redirect owner = %q, want %q", owner, p.peers["b"])
	}
	if _, err := p.a.Lookup(stays, 0); err != nil {
		t.Errorf("non-displaced instance broken: %v", err)
	}
	if st := p.a.Stats(); st.Shard == nil || st.Shard.MigrationsOut != 1 {
		t.Errorf("source shard stats = %+v", st.Shard)
	}
	if st := p.b.Stats(); st.Shard == nil || st.Shard.MigrationsIn != 1 {
		t.Errorf("target shard stats = %+v", st.Shard)
	}

	// Durability on both sides: the target's journal replays the
	// OpMigrate arrival (consuming its seq), the source's replays the
	// departure — neither resurrects a stale copy.
	for _, side := range []struct {
		m       *Manager
		has     []string
		hasnt   []string
		migrate int
	}{
		{p.b, []string{moves}, []string{stays}, 1},
		{p.a, []string{stays}, []string{moves}, 0},
	} {
		img := journalImage(t, side.m)
		m2 := NewManager(Options{})
		path := filepath.Join(t.TempDir(), "replay.wal")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := m2.RecoverFile(path)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if st.Migrated != side.migrate {
			t.Errorf("recovered Migrated = %d, want %d", st.Migrated, side.migrate)
		}
		for _, id := range side.has {
			if _, ok := m2.Get(id); !ok {
				t.Errorf("recovered image lost %q", id)
			}
		}
		for _, id := range side.hasnt {
			if _, ok := m2.Get(id); ok {
				t.Errorf("recovered image resurrected %q", id)
			}
		}
	}
	if got := phiSliceOf(t, p.b, moves); len(got) == 0 {
		t.Error("empty phi after everything")
	}
}

// TestMigrateWriteRaceLosesNothing is the cutover-race invariant: a
// writer hammering the source during the migration either gets its
// write applied (pre-fence, and the fenced state carries it) or gets an
// explicit wrong-shard redirect — never a silent drop, never a double
// apply. Epoch arithmetic is the proof: the epoch on the new owner
// must equal the number of acknowledged writes exactly.
func TestMigrateWriteRaceLosesNothing(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, lifecycleSpec); err != nil {
		t.Fatal(err)
	}
	p.installTopology(t)

	applied := 0
	redirected := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		kind := EventFault
		for i := 0; i < 1_000_000; i++ {
			_, err := p.a.Event(id, Event{kind, 0})
			switch {
			case err == nil:
				applied++
				if kind == EventFault {
					kind = EventRepair
				} else {
					kind = EventFault
				}
			case errors.Is(err, ErrWrongShard):
				redirected = true
				return
			default:
				t.Errorf("write failed with %v mid-migration", err)
				return
			}
		}
	}()

	time.Sleep(5 * time.Millisecond) // let some pre-fence writes land
	if _, err := p.a.migrateOut(id, "b"); err != nil {
		t.Fatal(err)
	}
	<-done
	if !redirected {
		t.Fatal("writer never saw the wrong-shard redirect")
	}
	if applied == 0 {
		t.Fatal("no writes applied before the fence")
	}

	// The epoch on the new owner is the acked write count: nothing lost
	// or doubled. The toggle pattern makes the final fault set a parity
	// function of that count — an independent check the state, not just
	// the counter, arrived intact — and phi is a fresh mapping's over it.
	var faults []int
	if applied%2 == 1 {
		faults = []int{0}
	}
	checkFleet(t, p.b, map[string]expectedState{id: {lifecycleSpec, uint64(applied), faults}})
}

// TestMigrateStaleWriterIsRedirected is the first way the race above
// used to lose: a writer resolved the instance before the cutover and
// reaches its writer mutex after it, when the copy is both fenced and
// tombstoned. The fence speaks first — the writer is owed the new
// owner's address, not "deleted".
func TestMigrateStaleWriterIsRedirected(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	in, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.installTopology(t)
	if _, err := p.a.migrateOut(id, "b"); err != nil {
		t.Fatal(err)
	}
	_, err = in.ApplyBatch([]Event{{EventFault, 0}})
	if !errors.Is(err, ErrWrongShard) || WrongShardOwner(err) != p.peers["b"] {
		t.Fatalf("write through a pre-cutover *Instance: %v (owner %q), want ErrWrongShard naming %s",
			err, WrongShardOwner(err), p.peers["b"])
	}
}

// TestMigrateCutoverMissIsRedirected is the second way: the request
// set out while the displaced copy was still held here, and finds the
// instance gone. The requests are parked on the shard lock while the
// cutover lands, and a miss is the ring's to answer: a redirect. Every
// entry point shares one prologue; a string form, a bytes form and
// Delete stand for them.
func TestMigrateCutoverMissIsRedirected(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	in, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.installTopology(t) // a holds id, the ring gives it to b

	s := p.a.shardFor(id)
	s.mu.Lock()
	requests := map[string]func() error{
		"Lookup": func() error { _, err := p.a.Lookup(id, 0); return err },
		"LookupBatchBytes": func() error {
			_, err := p.a.LookupBatchBytes([]byte(id), []int{0, 1}, make([]int, 2))
			return err
		},
		"EventBatchBytes": func() error {
			_, err := p.a.EventBatchBytes([]byte(id), []Event{{EventFault, 0}})
			return err
		},
		"Delete": func() error {
			ok, err := p.a.Delete(id)
			if err == nil {
				err = fmt.Errorf("answered (%v, nil), as if the id were this daemon's to miss", ok)
			}
			return err
		},
	}
	type answer struct {
		name string
		err  error
	}
	answers := make(chan answer, len(requests))
	for name, do := range requests {
		go func() { answers <- answer{name, do()} }()
	}
	time.Sleep(50 * time.Millisecond) // let them reach the shard lock
	in.writeMu.Lock()
	in.retire("")
	in.writeMu.Unlock()
	delete(s.instances, id)
	s.mu.Unlock()

	for range requests {
		a := <-answers
		if !errors.Is(a.err, ErrWrongShard) || WrongShardOwner(a.err) != p.peers["b"] {
			t.Errorf("%s across the cutover: %v, want ErrWrongShard naming %s", a.name, a.err, p.peers["b"])
		}
	}
}

// TestResolveAllocs pins the shared prologue at zero allocations for
// both id forms, on an unsharded daemon and on a sharded one, for an id
// the ring gives it and for a displaced one it holds.
func TestResolveAllocs(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	ring := sharding.New([]string{"a", "b"}, 0)
	for _, sharded := range []bool{false, true} {
		m := NewManager(Options{})
		var mine, displaced string
		for i := 0; mine == "" || displaced == ""; i++ {
			id := fmt.Sprintf("inst-%d", i)
			if _, err := m.Create(id, spec); err != nil {
				t.Fatal(err)
			}
			if ring.Owner(id) == "a" {
				mine = id
			} else {
				displaced = id
			}
		}
		if sharded {
			m.SetTopology("a", map[string]string{"a": "http://a.example", "b": "http://b.example"}, 0)
			if info, _ := m.ring(); info.Moved == 0 {
				t.Fatal("no displaced copy held")
			}
		}
		for _, id := range []string{mine, displaced} {
			idBytes, xs, phis := []byte(id), []int{0, 1, 2}, make([]int, 3)
			if n := testing.AllocsPerRun(200, func() {
				if _, err := m.Lookup(id, 1); err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.LookupEpochBytes(idBytes, 1); err != nil {
					t.Fatal(err)
				}
				if _, err := m.LookupBatchBytes(idBytes, xs, phis); err != nil {
					t.Fatal(err)
				}
				if _, ok := m.GetBytes(idBytes); !ok {
					t.Fatal("GetBytes missed")
				}
			}); n != 0 {
				t.Errorf("sharded=%v id=%s: the lookups allocate %v times, want 0", sharded, id, n)
			}
		}
	}
}

// TestMigrateHTTPRedirect pins the JSON plane's cutover contract:
// after the handoff the old owner answers 403 with the new owner's
// URL in X-Ftnet-Owner, and a client that follows it succeeds.
func TestMigrateHTTPRedirect(t *testing.T) {
	p := newShardPair(t)
	p.listen(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	p.installTopology(t)
	if _, err := p.a.migrateOut(id, "b"); err != nil {
		t.Fatal(err)
	}

	post := func(url string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	ev := Event{EventFault, 3}
	resp := post(p.peers["a"]+"/v1/instances/"+id+"/events", ev)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("write on old owner = %d, want 403", resp.StatusCode)
	}
	owner := resp.Header.Get("X-Ftnet-Owner")
	if owner != p.peers["b"] {
		t.Fatalf("X-Ftnet-Owner = %q, want %q", owner, p.peers["b"])
	}
	resp = post(owner+"/v1/instances/"+id+"/events", ev)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write on redirect target = %d, want 200", resp.StatusCode)
	}

	// Reads redirect too — both the single-x path and the dense stream.
	for _, path := range []string{"/v1/instances/" + id + "/phi?x=0", "/v1/instances/" + id + "/phi", "/v1/instances/" + id} {
		r, err := http.Get(p.peers["a"] + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusForbidden || r.Header.Get("X-Ftnet-Owner") != p.peers["b"] {
			t.Errorf("GET %s on old owner = %d (owner %q), want 403 + owner", path, r.StatusCode, r.Header.Get("X-Ftnet-Owner"))
		}
	}
	// Creating an instance the ring assigns elsewhere redirects instead
	// of planting a shadow copy.
	other := idOwnedBy(t, "b") + "-new"
	if owner := sharding.New([]string{"a", "b"}, 0).Owner(other); owner == "b" {
		resp = post(p.peers["a"]+"/v1/instances", createRequest{ID: other, Spec: Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}})
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("create for foreign id = %d, want 403", resp.StatusCode)
		}
	}
}

func TestMigrateStageLifecycle(t *testing.T) {
	p := newShardPair(t)
	p.installTopology(t)
	id := idOwnedBy(t, "b")
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	frame := sharding.Migration{
		ID:    id,
		Token: 7,
		Record: journal.Record{
			Op:    journal.OpCheckpoint,
			ID:    id,
			Spec:  journalSpec(spec),
			Epoch: 0,
		},
	}

	// Staging on the wrong member bounces with a redirect.
	if err := p.a.stageMigration(frame); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("stage on non-owner err = %v, want ErrWrongShard", err)
	}
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	// Staged = invisible to readers until the fenced state commits.
	if _, err := p.b.Lookup(id, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("lookup on staged instance err = %v, want ErrUnavailable", err)
	}
	// A commit that doesn't carry the staged attempt's token is refused.
	foreign := frame
	foreign.Token = 99
	if _, err := p.b.commitMigration(foreign); !errors.Is(err, ErrConflict) {
		t.Fatalf("mismatched commit err = %v, want ErrConflict", err)
	}
	// Re-staging (source retry) is idempotent.
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatalf("re-stage: %v", err)
	}
	if !p.b.abortMigration(id) {
		t.Fatal("abort found nothing")
	}
	if _, ok := p.b.Get(id); ok {
		t.Fatal("aborted stage still visible")
	}
	if p.b.abortMigration(id) {
		t.Fatal("second abort claimed success")
	}
	// A stage must never replace a live instance.
	if _, err := p.b.Create(id, spec); err != nil {
		t.Fatal(err)
	}
	if err := p.b.stageMigration(frame); !errors.Is(err, ErrConflict) {
		t.Fatalf("stage over live instance err = %v, want ErrConflict", err)
	}
}

func TestMigrateGuards(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.a.migrateOut(id, "b"); err == nil {
		t.Error("migrate without topology accepted")
	}
	p.installTopology(t)
	if _, err := p.a.migrateOut(id, "ghost"); err == nil {
		t.Error("migrate to unknown peer accepted")
	}
	if _, err := p.a.migrateOut(id, "a"); err == nil {
		t.Error("migrate to self accepted")
	}
	if _, err := p.a.migrateOut("missing", "b"); !errors.Is(err, ErrNotFound) {
		t.Error("migrate of unknown instance accepted")
	}
	// Delete is fenced off for an in-flight instance only; a plain
	// displaced-but-unfenced instance still deletes locally.
	if ok, err := p.a.Delete(id); !ok || err != nil {
		t.Errorf("delete of pinned instance = %v, %v", ok, err)
	}
}

// TestMigrateDeletedDisplacedCopyIsNotOwned: who serves an id is read
// off the copy, so deleting a displaced copy leaves nothing behind that
// still claims the id — the next request, a create included, is the
// ring's to redirect, and only the ring owner takes the id again.
func TestMigrateDeletedDisplacedCopyIsNotOwned(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, lifecycleSpec); err != nil {
		t.Fatal(err)
	}
	p.installTopology(t)
	if ok, err := p.a.Delete(id); !ok || err != nil {
		t.Fatalf("delete of the displaced copy = %v, %v", ok, err)
	}
	_, lookupErr := p.a.Lookup(id, 0)
	_, createErr := p.a.Create(id, lifecycleSpec)
	for what, err := range map[string]error{"lookup": lookupErr, "create": createErr} {
		if !errors.Is(err, ErrWrongShard) || WrongShardOwner(err) != p.peers["b"] {
			t.Errorf("%s after the delete: %v, want ErrWrongShard naming %s", what, err, p.peers["b"])
		}
	}
	if info, _ := p.a.ring(); info.Moved != 0 {
		t.Errorf("Moved = %d after the delete, want 0", info.Moved)
	}
	if _, err := p.b.Create(id, lifecycleSpec); err != nil {
		t.Errorf("create on the ring owner: %v", err)
	}
}

// TestMigrateCommitAfterRingChangeIsServed: a copy staged before a ring
// change and committed after it is journaled here and nowhere else, so
// it is served here — displaced, for the next rebalance to move on — in
// whichever order the ring and the copy arrived.
func TestMigrateCommitAfterRingChangeIsServed(t *testing.T) {
	p := newShardPair(t)
	p.installTopology(t)
	grown := map[string]string{"a": p.peers["a"], "b": p.peers["b"], "c": "http://c.example"}
	two, three := sharding.New([]string{"a", "b"}, 0), sharding.New([]string{"a", "b", "c"}, 0)
	var id string
	for i := 0; id == "" || two.Owner(id) != "b" || three.Owner(id) != "c"; i++ {
		id = fmt.Sprintf("inst-%d", i)
	}
	if err := p.b.stageMigration(stageFrame(id, 7)); err != nil {
		t.Fatal(err)
	}
	p.b.SetTopology("b", grown, 0)
	if _, err := p.b.commitMigration(stageFrame(id, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.Lookup(id, 0); err != nil {
		t.Errorf("lookup of the only copy in the fleet: %v", err)
	}
	if got := p.b.displaced(); !slices.Equal(got, []string{id}) {
		t.Errorf("displaced = %v, want [%s]", got, id)
	}
	if info, _ := p.b.ring(); info.Moved != 1 {
		t.Errorf("Moved = %d, want 1", info.Moved)
	}
}

// TestMigrateHandoffInProcess: the pair's daemons reach each other
// through Manager.peerTransport alone — the peer's real handler, no
// listener, no socket — and that carries a whole handoff: the target
// answers bit-identically and the source's journal ends in the OpDelete.
func TestMigrateHandoffInProcess(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, lifecycleSpec); err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{1, 5} {
		if _, err := p.a.Event(id, Event{EventFault, node}); err != nil {
			t.Fatal(err)
		}
	}
	p.installTopology(t)
	if st, err := p.a.migrateOut(id, "b"); err != nil || st.Epoch != 2 {
		t.Fatalf("handoff = %+v, %v; want epoch 2", st, err)
	}
	checkFleet(t, p.b, map[string]expectedState{id: {lifecycleSpec, 2, []int{1, 5}}})
	recs, _, err := journal.ReadAll(bytes.NewReader(journalImage(t, p.a)))
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Op != journal.OpDelete || last.ID != id {
		t.Errorf("the source's journal ends in %v of %q, want the OpDelete of %q", last.Op, last.ID, id)
	}
}

// migrationTap decorates a peer transport and shows see every migration
// frame pushed through it, before the daemon hears of it. An error from
// see is an outage: the push fails and is never forwarded.
func migrationTap(t *testing.T, next http.RoundTripper, see func(path string, mig sharding.Migration) error) http.RoundTripper {
	return roundTrip(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/v1/migrate/stage" || r.URL.Path == "/v1/migrate/commit" {
			body, _ := io.ReadAll(r.Body)
			mig, err := sharding.DecodeMigration(body)
			if err != nil {
				t.Errorf("%s: pushed frame does not decode: %v", r.URL.Path, err)
			}
			if err := see(r.URL.Path, mig); err != nil {
				return nil, err
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		return next.RoundTrip(r)
	})
}

// lossyFront decorates a peer transport for fault injection: the ANSWER
// to any path swallow matches is lost (the daemon did the work), and any
// path refuse matches fails without being forwarded (the daemon never
// heard about it).
func lossyFront(next http.RoundTripper, swallow, refuse func(path string) bool) http.RoundTripper {
	return roundTrip(func(r *http.Request) (*http.Response, error) {
		if refuse != nil && refuse(r.URL.Path) {
			return nil, errors.New("injected outage")
		}
		resp, err := next.RoundTrip(r)
		if err == nil && swallow(r.URL.Path) {
			resp.Body.Close()
			return nil, errors.New("injected response loss")
		}
		return resp, err
	})
}

// TestMigrateCommitResponseLostStillCutsOver is the split-brain
// regression: the commit frame reaches the target (which durably
// journals the arrival and opens for traffic) but its answer is lost.
// The source must NOT treat that as an abort and resume ownership —
// resolveHandoff discovers the commit landed and the cutover finishes,
// leaving exactly one live copy.
func TestMigrateCommitResponseLostStillCutsOver(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5} {
		if _, err := p.a.Event(id, Event{EventFault, n}); err != nil {
			t.Fatal(err)
		}
	}

	p.a.peerTransport = lossyFront(p.net,
		func(path string) bool { return path == "/v1/migrate/commit" }, nil)
	p.installTopology(t)

	st, err := p.a.migrateOut(id, "b")
	if err != nil {
		t.Fatalf("migrate with lost commit answer = %v, want resolved success", err)
	}
	if st.ID != id || st.Peer != "b" || st.Epoch != 2 {
		t.Errorf("stats = %+v, want id=%s peer=b epoch=2", st, id)
	}
	// Exactly one live copy: the target serves, the source redirects.
	if _, err := p.b.Lookup(id, 0); err != nil {
		t.Fatalf("new owner lookup: %v", err)
	}
	if _, ok := p.a.Get(id); ok {
		t.Error("stale copy still registered on the source")
	}
	if _, err := p.a.Lookup(id, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("old owner lookup err = %v, want ErrWrongShard", err)
	}
}

// TestMigrateUnresolvedCommitHoldsFence: when the commit answer is
// lost AND the target cannot be probed, the handoff is genuinely
// ambiguous — the only safe posture is to keep the write fence up
// (writes bounce with a redirect, they do not land on the maybe-stale
// copy) and let a later migrateOut resume the resolution.
func TestMigrateUnresolvedCommitHoldsFence(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	if _, err := p.a.Create(id, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5} {
		if _, err := p.a.Event(id, Event{EventFault, n}); err != nil {
			t.Fatal(err)
		}
	}

	var outage atomic.Bool
	outage.Store(true)
	p.a.peerTransport = lossyFront(p.net,
		func(path string) bool { return path == "/v1/migrate/commit" },
		func(path string) bool {
			return outage.Load() &&
				(path == "/v1/migrate/abort" || path == "/v1/migrate/state")
		})
	p.installTopology(t)

	if _, err := p.a.migrateOut(id, "b"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unresolved migrate err = %v, want ErrUnavailable", err)
	}
	// The fence held: a write on the source is redirected, never applied
	// — the target committed and is serving, so an applied write would
	// be silently lost at retirement.
	if _, err := p.a.Event(id, Event{EventFault, 2}); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("write during unresolved handoff err = %v, want ErrWrongShard", err)
	}
	if _, err := p.b.Lookup(id, 0); err != nil {
		t.Fatalf("target lookup: %v", err)
	}

	// The outage heals; re-running the migration resumes the pending
	// resolution (not ErrConflict), finishes the cutover, and reports it.
	outage.Store(false)
	st, err := p.a.migrateOut(id, "b")
	if err != nil {
		t.Fatalf("resumed migrate: %v", err)
	}
	if st.ID != id || st.Peer != "b" || st.Epoch != 2 {
		t.Errorf("resumed stats = %+v, want id=%s peer=b epoch=2", st, id)
	}
	if _, ok := p.a.Get(id); ok {
		t.Error("stale copy survived the resumed cutover")
	}
	if _, err := p.a.Lookup(id, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("old owner lookup err = %v, want ErrWrongShard", err)
	}
}

// TestDeleteStagedRefused: a client DELETE racing an inbound migration
// must not tombstone the staged copy — its journal never created the
// id, so the OpDelete would be an orphan and the source's in-flight
// commit would race it.
func TestDeleteStagedRefused(t *testing.T) {
	p := newShardPair(t)
	p.installTopology(t)
	id := idOwnedBy(t, "b")
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	frame := sharding.Migration{
		ID:     id,
		Token:  3,
		Record: journal.Record{Op: journal.OpCheckpoint, ID: id, Spec: journalSpec(spec), Epoch: 0},
	}
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	ok, err := p.b.Delete(id)
	if ok || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("delete of staged copy = (%v, %v), want refused with ErrUnavailable", ok, err)
	}
	// The stage is untouched and the handoff still commits.
	if state, _ := p.b.migrationState(id); state != "staged" {
		t.Fatalf("state after refused delete = %q, want staged", state)
	}
	if _, err := p.b.commitMigration(frame); err != nil {
		t.Fatalf("commit after refused delete: %v", err)
	}
}

// TestAbortCommitFence pins the resolution protocol's hinge: a
// successful abort permanently fences the commit out (resolveHandoff
// treats aborted=true as proof the handoff never happened), and an
// abort after the commit is a no-op on the live copy.
func TestAbortCommitFence(t *testing.T) {
	p := newShardPair(t)
	p.installTopology(t)
	id := idOwnedBy(t, "b")
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	frame := sharding.Migration{
		ID:     id,
		Token:  1,
		Record: journal.Record{Op: journal.OpCheckpoint, ID: id, Spec: journalSpec(spec), Epoch: 0},
	}

	// Abort first: the commit must find nothing to land on.
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	if !p.b.abortMigration(id) {
		t.Fatal("abort found nothing staged")
	}
	if _, err := p.b.commitMigration(frame); !errors.Is(err, ErrNotFound) {
		t.Fatalf("commit after abort err = %v, want ErrNotFound", err)
	}
	if state, _ := p.b.migrationState(id); state != "absent" {
		t.Fatalf("state after aborted handoff = %q, want absent", state)
	}

	// Commit first: the abort must not drop the committed copy.
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.commitMigration(frame); err != nil {
		t.Fatal(err)
	}
	if p.b.abortMigration(id) {
		t.Fatal("abort claimed to drop a committed instance")
	}
	if state, _ := p.b.migrationState(id); state != "committed" {
		t.Fatalf("state after commit = %q, want committed", state)
	}
	if _, err := p.b.Lookup(id, 0); err != nil {
		t.Fatalf("committed instance unavailable after no-op abort: %v", err)
	}
}

// TestReconcilePinsRetiresStaleCopy covers the crash-resurrection
// hole: the source crashed after the target's OpMigrate commit but
// before its own OpDelete, restarted, recovered the instance, and
// SetTopology pinned it to itself. reconcilePins must retire exactly
// the copies whose ring owner confirms a committed handoff at the same
// or newer epoch, and keep serving everything else.
func TestReconcilePinsRetiresStaleCopy(t *testing.T) {
	p := newShardPair(t)
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	ring := sharding.New([]string{"a", "b"}, 0)
	var ids []string
	for i := 0; len(ids) < 3; i++ {
		if id := fmt.Sprintf("rec-%d", i); ring.Owner(id) == "b" {
			ids = append(ids, id)
		}
	}
	handedOff, divergent, neverMoved := ids[0], ids[1], ids[2]
	for _, id := range ids {
		if _, err := p.a.Create(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 5} {
		if _, err := p.a.Event(handedOff, Event{EventFault, n}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.a.Event(divergent, Event{EventFault, 1}); err != nil {
		t.Fatal(err)
	}
	p.installTopology(t) // pins all three to a

	// handedOff: the handoff committed on b at a's exact epoch (the
	// crash-window state the OpDelete never recorded).
	inA, _ := p.a.Get(handedOff)
	frame := sharding.Migration{ID: handedOff, Token: 5, Record: checkpointRecord(handedOff, spec, inA.snap.Load())}
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.commitMigration(frame); err != nil {
		t.Fatal(err)
	}
	// divergent: b holds an OLDER committed copy (epoch 0 < a's 1) — the
	// local copy has history the owner lacks, so it must not be retired.
	frame = sharding.Migration{
		ID: divergent, Token: 6,
		Record: journal.Record{Op: journal.OpCheckpoint, ID: divergent, Spec: journalSpec(spec), Epoch: 0},
	}
	if err := p.b.stageMigration(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.commitMigration(frame); err != nil {
		t.Fatal(err)
	}

	st := p.a.reconcilePins(context.Background())
	if st.Checked != 3 || st.Retired != 1 || st.Kept != 2 || st.Unresolved != 0 {
		t.Fatalf("reconcile stats = %+v, want checked=3 retired=1 kept=2 unresolved=0", st)
	}
	// The confirmed-committed copy is gone and redirects...
	if _, ok := p.a.Get(handedOff); ok {
		t.Error("stale handed-off copy survived reconciliation")
	}
	if _, err := p.a.Lookup(handedOff, 0); !errors.Is(err, ErrWrongShard) {
		t.Errorf("retired id lookup err = %v, want ErrWrongShard", err)
	}
	// ...while the divergent and never-moved copies keep serving here.
	for _, id := range []string{divergent, neverMoved} {
		if _, err := p.a.Lookup(id, 0); err != nil {
			t.Errorf("kept instance %q unavailable after reconciliation: %v", id, err)
		}
	}
	if info, ok := p.a.ring(); !ok || info.Moved != 2 {
		t.Errorf("moved pins after reconciliation = %d, want 2", info.Moved)
	}
	// A second pass converges: nothing more to retire, nothing lost.
	if st2 := p.a.reconcilePins(context.Background()); st2.Retired != 0 || st2.Unresolved != 0 {
		t.Errorf("second reconcile pass = %+v, want no retirements", st2)
	}
}

// TestMigrateShipsStateNotHistory: a handoff carries the instance's
// state under the fence and nothing of how it got there. 80 commits land
// on the source between the stage and the fence — 40 on the migrating
// instance, 40 on a bystander — against a commit log that keeps four
// entries in memory. Whether or not the source has a journal to look
// them up in, the commit frame is one checkpoint record and the target
// ends at epoch 40.
func TestMigrateShipsStateNotHistory(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			src := NewManager(Options{CommitHistory: 4})
			t.Cleanup(func() { src.Close() })
			if journaled {
				w, err := journal.Create(filepath.Join(t.TempDir(), "epochs.wal"), journal.Options{Sync: journal.SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				src.SetJournal(w)
			}
			dst := bootDaemon(t, DaemonConfig{}).mgr
			moving, bystander := idOwnedBy(t, "b"), idOwnedBy(t, "a")
			for _, id := range []string{moving, bystander} {
				if _, err := src.Create(id, spec); err != nil {
					t.Fatal(err)
				}
			}

			var commits []sharding.Migration
			src.peerTransport = migrationTap(t, inProcess{"b.example": NewHTTPHandler(dst)}, func(path string, mig sharding.Migration) error {
				if path == "/v1/migrate/commit" {
					commits = append(commits, mig)
					return nil
				}
				if mig.Record.Epoch != 0 {
					t.Errorf("staged at epoch %d, want the unfenced 0", mig.Record.Epoch)
				}
				// The source is waiting for this stage's answer: the fence
				// is not up yet, and all of this is history by the time it is.
				for i := 0; i < 40; i++ {
					ev := Event{EventFault, 0}
					switch {
					case i == 38:
						ev.Node = 1
					case i == 39:
						ev.Node = 5
					case i%2 == 1:
						ev.Kind = EventRepair
					}
					for _, id := range []string{moving, bystander} {
						if _, err := src.Event(id, ev); err != nil {
							t.Errorf("write %d on %s before the fence: %v", i, id, err)
						}
					}
				}
				return nil
			})
			peers := map[string]string{"a": "http://a.example", "b": "http://b.example"}
			src.SetTopology("a", peers, 0)
			dst.SetTopology("b", peers, 0)

			st, err := src.migrateOut(moving, "b")
			if err != nil {
				t.Fatalf("handoff past 80 commits of history: %v", err)
			}
			if st.Epoch != 40 {
				t.Errorf("handed off at epoch %d, want 40", st.Epoch)
			}
			if len(commits) != 1 || commits[0].Record.Op != journal.OpCheckpoint || commits[0].Record.Epoch != 40 {
				t.Fatalf("commit frames = %+v, want one OpCheckpoint at epoch 40", commits)
			}
			checkFleet(t, dst, map[string]expectedState{moving: {spec, 40, []int{1, 5}}})
			if _, ok := src.Get(moving); ok {
				t.Error("the source still holds the instance")
			}
			if by, ok := src.Get(bystander); !ok || by.Info().Epoch != 40 {
				t.Error("the bystander did not stay on the source at epoch 40")
			}
		})
	}
}

// TestMigrateCommitRefusals: the target verifies the one record it is
// asked to install, on receipt. Whatever it refuses leaves the arriving
// copy arriving, at the snapshot it was staged with, and the journal
// where it was.
func TestMigrateCommitRefusals(t *testing.T) {
	p := newShardPair(t)
	p.installTopology(t)
	id := idOwnedBy(t, "b")
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	frame := func(edit func(*sharding.Migration)) sharding.Migration {
		mig := sharding.Migration{ID: id, Token: 7, Record: journal.Record{
			Op: journal.OpCheckpoint, ID: id, Spec: journalSpec(spec), Epoch: 2, Faults: []int{3, 5}}}
		edit(&mig)
		return mig
	}
	staged := frame(func(mig *sharding.Migration) { mig.Record.Epoch, mig.Record.Faults = 1, []int{3} })
	if err := p.b.stageMigration(staged); err != nil {
		t.Fatal(err)
	}
	in := mustGet(t, p.b, id)
	snap, seq := in.snap.Load(), p.b.NextSeq()

	for name, c := range map[string]struct {
		edit func(*sharding.Migration)
		want error // nil: any refusal
	}{
		"wrong op": {edit: func(mig *sharding.Migration) { mig.Record.Op, mig.Record.Applied = journal.OpTransition, 1 }},
		"another spec": {edit: func(mig *sharding.Migration) {
			mig.Record.Spec = journalSpec(Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3})
		}},
		"epoch below the staged one": {edit: func(mig *sharding.Migration) { mig.Record.Epoch = 0 }},
		"foreign token":              {edit: func(mig *sharding.Migration) { mig.Token = 8 }, want: ErrConflict},
		"forged fault set":           {edit: func(mig *sharding.Migration) { mig.Record.Faults = []int{3, 3} }, want: ErrCorruptRecord},
	} {
		_, err := p.b.commitMigration(frame(c.edit))
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: err %v, want a refusal (%v)", name, err, c.want)
		}
		if !in.arriving() || in.snap.Load() != snap || p.b.NextSeq() != seq {
			t.Fatalf("%s: the refused frame left the copy %s at epoch %d, next seq %d; want arriving at the staged snapshot, next seq %d",
				name, phaseNames[in.at()], in.snap.Load().Epoch(), p.b.NextSeq(), seq)
		}
	}

	epoch, err := p.b.commitMigration(frame(func(*sharding.Migration) {}))
	if err != nil || epoch != 2 {
		t.Fatalf("the genuine frame: epoch %d, err %v; want epoch 2", epoch, err)
	}
	if info := in.Info(); in.at() != phaseLive || info.Epoch != 2 || !slices.Equal(info.Faults, []int{3, 5}) {
		t.Fatalf("after the commit the copy is %s at epoch %d faults %v", phaseNames[in.at()], info.Epoch, info.Faults)
	}
}

// TestMigrateAttemptsHaveTheirOwnToken: an abort fences off the attempt
// it answers, for good. The commit frame of an aborted attempt finds a
// later attempt's stage and must not land on it — the source would read
// "committed" as its own attempt's and drop what it acked in between —
// so every migrateOut attempt stages and commits under a token minted
// for it alone.
func TestMigrateAttemptsHaveTheirOwnToken(t *testing.T) {
	p := newShardPair(t)
	id := idOwnedBy(t, "b")
	p.b.SetTopology("b", p.peers, 0)

	// The target's half: stage A, abort, stage B, commit A.
	if err := p.b.stageMigration(stageFrame(id, 1)); err != nil {
		t.Fatal(err)
	}
	if !p.b.abortMigration(id) {
		t.Fatal("abort found nothing staged")
	}
	if err := p.b.stageMigration(stageFrame(id, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.commitMigration(stageFrame(id, 1)); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit of the aborted attempt on the next one's stage: err %v, want ErrConflict", err)
	}
	if state, _ := p.b.migrationState(id); state != "staged" {
		t.Fatalf("state after the refused commit = %q, want staged", state)
	}
	if epoch, err := p.b.commitMigration(stageFrame(id, 2)); err != nil || epoch != 4 {
		t.Fatalf("commit of the staged attempt: epoch %d, err %v", epoch, err)
	}
	if ok, err := p.b.Delete(id); !ok || err != nil {
		t.Fatalf("delete = %v, %v", ok, err)
	}

	// The source's half: two attempts with no commit of its own in
	// between (the first loses its commit push and is aborted).
	if _, err := p.a.Create(id, lifecycleSpec); err != nil {
		t.Fatal(err)
	}
	var tokens []uint64
	outage := true
	p.a.peerTransport = migrationTap(t, p.net, func(path string, mig sharding.Migration) error {
		tokens = append(tokens, mig.Token)
		if outage && path == "/v1/migrate/commit" {
			return errors.New("injected outage")
		}
		return nil
	})
	p.a.SetTopology("a", p.peers, 0)
	if _, err := p.a.migrateOut(id, "b"); err == nil {
		t.Fatal("the first attempt's commit push was lost, yet it succeeded")
	}
	outage = false
	if _, err := p.a.migrateOut(id, "b"); err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 4 || tokens[0] != tokens[1] || tokens[2] != tokens[3] || tokens[0] == tokens[2] {
		t.Fatalf("tokens of (stage, commit, stage, commit) = %x, want one per attempt", tokens)
	}
}
