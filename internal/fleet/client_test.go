package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	sharding "ftnet/internal/shard"
)

// categories is every category errCode can map a refusal from.
var categories = []error{ErrNotFound, ErrConflict, ErrReadOnly, ErrWrongShard, ErrUnavailable, ErrInvalid}

// TestClientAnswersInFleetCategories drives every Client method against
// the real handler — the happy path first, then once per category
// errCode emits — so the status -> category half of the table
// (responseError) cannot drift from the category -> status half it
// inverts, and no caller has a "status %d" to flatten a refusal into.
func TestClientAnswersInFleetCategories(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1}
	const ownerURL = "http://127.0.0.1:1" // member b: named in hints, never up

	// One sharded daemon "a" of a two-member ring: it serves what the
	// ring gives it, redirects the rest, and holds one staged arrival.
	mgr := NewManager(Options{})
	ts := httptest.NewServer(NewHTTPHandler(mgr))
	t.Cleanup(ts.Close)
	peers := map[string]string{"a": ts.URL, "b": ownerURL}
	mgr.SetTopology("a", peers, 0)
	ring := sharding.New([]string{"a", "b"}, 0)
	var foreign string
	var own []string // mine, created, arriving, inbound, dropped, missing
	for i := 0; foreign == "" || len(own) < 6; i++ {
		if id := fmt.Sprintf("inst-%d", i); ring.Owner(id) == "b" {
			foreign = id
		} else {
			own = append(own, id)
		}
	}
	mine, created, arriving, inbound, dropped, missing := own[0], own[1], own[2], own[3], own[4], own[5]
	if _, err := mgr.Create(mine, spec); err != nil {
		t.Fatal(err)
	}
	if err := mgr.stageMigration(stageFrame(arriving, 7)); err != nil {
		t.Fatal(err)
	}
	// A read-only replica of its own, and a daemon whose one instance the
	// ring gives to the member that is never up.
	replica := NewManager(Options{})
	if _, err := replica.Create(mine, spec); err != nil {
		t.Fatal(err)
	}
	replica.readOnly.Store(true)
	tsRO := httptest.NewServer(NewHTTPHandler(replica))
	t.Cleanup(tsRO.Close)
	stuck := NewManager(Options{})
	if _, err := stuck.Create(foreign, spec); err != nil {
		t.Fatal(err)
	}
	tsStuck := httptest.NewServer(NewHTTPHandler(stuck))
	t.Cleanup(tsStuck.Close)
	stuck.SetTopology("a", map[string]string{"a": tsStuck.URL, "b": ownerURL}, 0)

	c := Client{HTTP: ts.Client(), Base: ts.URL}
	ro := Client{HTTP: tsRO.Client(), Base: tsRO.URL}
	fault := func(node int) []Event { return []Event{{Kind: EventFault, Node: node}} }

	// The happy path of every method, 201 and 204 included.
	if err := c.Healthz(); err != nil {
		t.Errorf("Healthz: %v", err)
	}
	if info, err := c.Create(created, spec); err != nil || info.ID != created || info.NTarget != 16 {
		t.Errorf("Create = (%+v, %v)", info, err)
	}
	if err := c.do(http.MethodDelete, instancePath(created, ""), nil, nil); err != nil {
		t.Errorf("DELETE answered 204: %v", err)
	}
	if res, err := c.EventBatch(mine, fault(0)); err != nil || res.Epoch != 1 || res.Applied != 1 {
		t.Errorf("EventBatch = (%+v, %v), want epoch 1", res, err)
	}
	if info, err := c.Instance(mine); err != nil || info.Epoch != 1 || !reflect.DeepEqual(info.Faults, []int{0}) {
		t.Errorf("Instance = (%+v, %v), want epoch 1 faults [0]", info, err)
	}
	if phi, err := c.Lookup(mine, 3); err != nil || phi != 4 {
		t.Errorf("Lookup = (%d, %v), want (4, nil)", phi, err)
	}
	if phi, err := c.Phi(mine); err != nil || len(phi) != 16 || phi[0] != 1 || phi[15] != 16 {
		t.Errorf("Phi = (%v, %v), want x+1 for 16 targets", phi, err)
	}
	if st, err := c.Stats(); err != nil || st.Instances != 2 || st.Obs == nil {
		t.Errorf("Stats = (%+v, %v), want 2 instances and an obs section", st.Stats, err)
	}
	if pr, err := c.Promote(); err != nil || !pr.WasLeader {
		t.Errorf("Promote on the leader = (%+v, %v), want was_leader", pr, err)
	}
	if err := c.SetRing(RingRequest{Self: "a", Peers: peers}); err != nil {
		t.Errorf("SetRing: %v", err)
	}
	if rr, err := c.Rebalance(); err != nil || rr.Count != 0 {
		t.Errorf("Rebalance with nothing displaced = (%+v, %v)", rr, err)
	}
	if err := c.stageMigration(stageFrame(inbound, 7)); err != nil {
		t.Errorf("stageMigration: %v", err)
	}
	if state, _, err := c.migrationState(inbound); err != nil || state != "staged" {
		t.Errorf("migrationState of a stage = (%q, %v)", state, err)
	}
	if err := c.commitMigration(stageFrame(inbound, 7)); err != nil {
		t.Errorf("commitMigration: %v", err)
	}
	if state, epoch, err := c.migrationState(inbound); err != nil || state != "committed" || epoch != 4 {
		t.Errorf("migrationState of an arrival = (%q, %d, %v), want committed at 4", state, epoch, err)
	}
	if err := c.stageMigration(stageFrame(dropped, 7)); err != nil {
		t.Errorf("stageMigration: %v", err)
	}
	if aborted, err := c.abortMigration(dropped); err != nil || !aborted {
		t.Errorf("abortMigration of a stage = (%v, %v), want true", aborted, err)
	}
	if aborted, err := c.abortMigration(inbound); err != nil || aborted {
		t.Errorf("abortMigration of an arrival = (%v, %v), want false", aborted, err)
	}
	if state, _, err := c.migrationState(dropped); err != nil || state != "absent" {
		t.Errorf("migrationState after the abort = (%q, %v), want absent", state, err)
	}

	// Every category, through every kind of method that can meet it.
	for _, tc := range []struct {
		name string
		do   func() error
		is   error // must match, and no other category may
	}{
		{"404 Instance", func() error { _, err := c.Instance(missing); return err }, ErrNotFound},
		{"404 Lookup", func() error { _, err := c.Lookup(missing, 0); return err }, ErrNotFound},
		{"404 Phi", func() error { _, err := c.Phi(missing); return err }, ErrNotFound},
		{"404 EventBatch", func() error { _, err := c.EventBatch(missing, fault(0)); return err }, ErrNotFound},
		{"404 commitMigration of nothing staged", func() error {
			return c.commitMigration(stageFrame(missing, 7))
		}, ErrNotFound},
		{"409 duplicate Create", func() error { _, err := c.Create(mine, spec); return err }, ErrConflict},
		{"409 double fault", func() error { _, err := c.EventBatch(mine, fault(0)); return err }, ErrConflict},
		{"409 budget exhausted", func() error { _, err := c.EventBatch(mine, fault(1)); return err }, ErrConflict},
		{"409 commitMigration of another attempt", func() error {
			if err := c.stageMigration(stageFrame(dropped, 7)); err != nil {
				return err
			}
			defer c.abortMigration(dropped)
			return c.commitMigration(stageFrame(dropped, 8))
		}, ErrConflict},
		{"403 read-only EventBatch", func() error { _, err := ro.EventBatch(mine, fault(1)); return err }, ErrReadOnly},
		{"403 read-only Create", func() error { _, err := ro.Create(created, spec); return err }, ErrReadOnly},
		{"403 read-only stageMigration", func() error { return ro.stageMigration(stageFrame(inbound, 7)) }, ErrReadOnly},
		{"403 + owner Instance", func() error { _, err := c.Instance(foreign); return err }, ErrWrongShard},
		{"403 + owner Lookup", func() error { _, err := c.Lookup(foreign, 0); return err }, ErrWrongShard},
		{"403 + owner EventBatch", func() error { _, err := c.EventBatch(foreign, fault(0)); return err }, ErrWrongShard},
		{"403 + owner Create", func() error { _, err := c.Create(foreign, spec); return err }, ErrWrongShard},
		{"403 + owner stageMigration", func() error { return c.stageMigration(stageFrame(foreign, 7)) }, ErrWrongShard},
		{"503 arriving Instance", func() error { _, err := c.Instance(arriving); return err }, ErrUnavailable},
		{"503 arriving Lookup", func() error { _, err := c.Lookup(arriving, 0); return err }, ErrUnavailable},
		{"503 arriving Phi", func() error { _, err := c.Phi(arriving); return err }, ErrUnavailable},
		{"503 arriving EventBatch", func() error { _, err := c.EventBatch(arriving, fault(0)); return err }, ErrUnavailable},
		{"400 node out of range", func() error { _, err := c.EventBatch(mine, fault(1<<20)); return err }, ErrInvalid},
		{"400 empty batch", func() error { _, err := c.EventBatch(mine, nil); return err }, ErrInvalid},
		{"400 target out of range", func() error { _, err := c.Lookup(mine, 1<<20); return err }, ErrInvalid},
		{"400 Create of a bad spec", func() error { _, err := c.Create(created, Spec{Kind: "ring"}); return err }, ErrInvalid},
		{"400 migrationState of no id", func() error { _, _, err := c.migrationState(""); return err }, ErrInvalid},
		{"400 stageMigration of garbage", func() error { return c.do(http.MethodPost, "/v1/migrate/stage", []byte("junk"), nil) }, ErrInvalid},
		{"400 Rebalance stopped by an unreachable owner", func() error {
			_, err := Client{HTTP: tsStuck.Client(), Base: tsStuck.URL}.Rebalance()
			return err
		}, ErrInvalid},
	} {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: succeeded", tc.name)
			continue
		}
		for _, cat := range categories {
			if errors.Is(err, cat) != (cat == tc.is) {
				t.Errorf("%s: %v: errors.Is(%v) = %v", tc.name, err, cat, cat != tc.is)
			}
		}
		if owner := WrongShardOwner(err); (owner == ownerURL) != (tc.is == ErrWrongShard) {
			t.Errorf("%s: wrong-shard owner = %q", tc.name, owner)
		}
	}

	// Promotion lifts the read-only posture for the client that asks.
	if pr, err := ro.Promote(); err != nil || pr.WasLeader || pr.Term == 0 {
		t.Errorf("Promote on the replica = (%+v, %v), want a new term", pr, err)
	}
	if _, err := ro.EventBatch(mine, fault(1)); err != nil {
		t.Errorf("EventBatch on the promoted replica: %v", err)
	}

	// No answer at all is the one thing that is not a category: the
	// request's fate is unknown, and the http.Client's error says so.
	ts.Close()
	err := c.Healthz()
	var ue *url.Error
	if !errors.As(err, &ue) {
		t.Errorf("Healthz of a closed daemon: %v, want the *url.Error as it came", err)
	}
	for _, cat := range categories {
		if errors.Is(err, cat) {
			t.Errorf("Healthz of a closed daemon: %v matches %v", err, cat)
		}
	}
}

// TestClientEscapesIDs is the misdelivery regression: an instance id is
// one escaped path segment, so ids that contain path syntax — and ids
// that look like each other's escaped form — each reach the instance
// they name, for reads and for writes.
func TestClientEscapesIDs(t *testing.T) {
	mgr := NewManager(Options{})
	ts := httptest.NewServer(NewHTTPHandler(mgr))
	t.Cleanup(ts.Close)
	c := Client{HTTP: ts.Client(), Base: ts.URL}
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}

	ids := []string{"a/b", "a%2Fb", "a?b", "a#b", "a%b", "a b", "a&b+c=d", "a/b/phi"}
	for _, id := range ids {
		if info, err := c.Create(id, spec); err != nil || info.ID != id {
			t.Fatalf("Create(%q) = (%+v, %v)", id, info, err)
		}
	}
	// Each instance gets its own fault, so a write or a read that landed
	// on a neighbour shows.
	for node, id := range ids {
		if res, err := c.EventBatch(id, []Event{{Kind: EventFault, Node: node}}); err != nil || res.Epoch != 1 {
			t.Errorf("EventBatch(%q) = (%+v, %v), want epoch 1", id, res, err)
		}
	}
	for node, id := range ids {
		// One fault at node: phi(x) = x below it, x+1 from it on.
		if got := mustGet(t, mgr, id).Info().Faults; !reflect.DeepEqual(got, []int{node}) {
			t.Errorf("%q holds faults %v, want [%d]: a write was misdelivered", id, got, node)
		}
		if info, err := c.Instance(id); err != nil || info.ID != id || !reflect.DeepEqual(info.Faults, []int{node}) {
			t.Errorf("Instance(%q) = (%+v, %v), want faults [%d]", id, info, err, node)
		}
		if phi, err := c.Lookup(id, node); err != nil || phi != node+1 {
			t.Errorf("Lookup(%q, %d) = (%d, %v), want %d", id, node, phi, err, node+1)
		}
		if phi, err := c.Phi(id); err != nil || !reflect.DeepEqual(phi, phiSliceOf(t, mgr, id)) {
			t.Errorf("Phi(%q) = (%v, %v), want %v", id, phi, err, phiSliceOf(t, mgr, id))
		}
		if state, epoch, err := c.migrationState(id); err != nil || state != "committed" || epoch != 1 {
			t.Errorf("migrationState(%q) = (%q, %d, %v), want committed at 1", id, state, epoch, err)
		}
	}
}

// TestPoll pins the one retry loop: it stops at the first success, and
// past the deadline it returns what the last try said.
func TestPoll(t *testing.T) {
	tries := 0
	if err := Poll(5*time.Second, func() error {
		if tries++; tries < 3 {
			return errors.New("not yet")
		}
		return nil
	}); err != nil || tries != 3 {
		t.Errorf("Poll = %v after %d tries, want nil after 3", err, tries)
	}
	tries = 0
	err := Poll(30*time.Millisecond, func() error { tries++; return fmt.Errorf("try %d", tries) })
	if err == nil || err.Error() != fmt.Sprintf("try %d", tries) || tries < 2 {
		t.Errorf("Poll past its deadline = %v after %d tries, want the last try's error", err, tries)
	}
	if err := Poll(-time.Second, func() error { tries = -1; return nil }); err != nil || tries != -1 {
		t.Errorf("Poll with no time left = %v, want one try", err)
	}
}

// TestFollowerPostureRefusesDirectWrites is the lost-write regression: a
// manager given nothing but NewFollower + Run — no handler option, no
// posture set by hand — refuses a direct write, on the Manager API the
// binary plane calls and on the JSON plane alike. Accepting it would
// commit it at the seq the leader's next entry carries, and that entry
// would then be dropped as a reconnect duplicate. Promotion opens both.
func TestFollowerPostureRefusesDirectWrites(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	leader := NewManager(Options{})
	defer leader.Close()
	lts := httptest.NewServer(NewHTTPHandler(leader))
	t.Cleanup(lts.Close)
	if _, err := leader.Create("a", spec); err != nil {
		t.Fatal(err)
	}

	fm := NewManager(Options{})
	defer fm.Close()
	f, err := NewFollower(fm, lts.URL, FollowerOptions{Heartbeat: 50 * time.Millisecond, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	fts := httptest.NewServer(NewHTTPHandler(fm))
	t.Cleanup(fts.Close)
	fc := Client{HTTP: fts.Client(), Base: fts.URL}
	waitConverged(t, leader, fm, 15*time.Second)

	fault := []Event{{Kind: EventFault, Node: 3}}
	if res, err := fm.EventBatch("a", fault); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("direct EventBatch on a follower = (%+v, %v), want ErrReadOnly", res, err)
	}
	if res, err := fc.EventBatch("a", fault); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("JSON EventBatch on a follower = (%+v, %v), want ErrReadOnly", res, err)
	}
	if _, err := fm.Create("b", spec); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("direct Create on a follower = %v, want ErrReadOnly", err)
	}
	// The leader's next entry lands where the refused write would have.
	if _, err := leader.EventBatch("a", []Event{{Kind: EventFault, Node: 5}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, fm, 15*time.Second)

	if _, err := fc.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if res, err := fm.EventBatch("a", fault); err != nil || res.Epoch != 2 {
		t.Fatalf("direct EventBatch after promotion = (%+v, %v), want epoch 2", res, err)
	}
	if res, err := fc.EventBatch("a", []Event{{Kind: EventRepair, Node: 3}}); err != nil || res.Epoch != 3 {
		t.Fatalf("JSON EventBatch after promotion = (%+v, %v), want epoch 3", res, err)
	}
}
