package cluster

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

// TestHTTPAnswersInFleetCategories drives the HTTP transport against
// the real handler once per category fleet's errCode emits, so the
// status -> category half of the table (fleet.ResponseError) cannot
// drift from the category -> status half it inverts.
func TestHTTPAnswersInFleetCategories(t *testing.T) {
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 1}
	const ownerURL = "http://daemon-b.example:8100"

	// One sharded daemon "a" of a two-member ring: it serves what the
	// ring gives it, redirects the rest, and holds one staged arrival.
	mgr := fleet.NewManager(fleet.Options{})
	ts := httptest.NewServer(fleet.NewHTTPHandler(mgr))
	t.Cleanup(ts.Close)
	mgr.SetTopology("a", map[string]string{"a": ts.URL, "b": ownerURL}, 0)
	ring := shard.New([]string{"a", "b"}, 0)
	var mine, arriving, missing, foreign string
	for i := 0; mine == "" || arriving == "" || missing == "" || foreign == ""; i++ {
		switch id := fmt.Sprintf("inst-%d", i); {
		case ring.Owner(id) == "b":
			foreign = id
		case mine == "":
			mine = id
		case arriving == "":
			arriving = id
		default:
			missing = id
		}
	}
	if _, err := mgr.Create(mine, spec); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StageMigration(shard.Migration{ID: arriving, Records: []journal.Record{{
		Op: journal.OpCheckpoint, ID: arriving,
		Spec: journal.Spec{Kind: string(spec.Kind), M: spec.M, H: spec.H, K: spec.K},
	}}}); err != nil {
		t.Fatal(err)
	}
	// And a read-only replica of its own.
	follower := fleet.NewManager(fleet.Options{})
	if _, err := follower.Create(mine, spec); err != nil {
		t.Fatal(err)
	}
	tsRO := httptest.NewServer(fleet.NewHTTPHandlerOpts(follower, fleet.HandlerOptions{ReadOnly: true}))
	t.Cleanup(tsRO.Close)

	h := HTTP{Client: ts.Client(), Base: ts.URL}
	ro := HTTP{Client: tsRO.Client(), Base: tsRO.URL}
	fault := func(node int) []fleet.Event { return []fleet.Event{{Kind: fleet.EventFault, Node: node}} }
	apply := func(h HTTP, id string, events []fleet.Event) func() error {
		return func() error { _, err := h.ApplyBatch(id, events); return err }
	}
	lookup := func(id string, x int) func() error {
		return func() error { _, _, err := h.Lookup(id, x); return err }
	}

	if phi, _, err := h.Lookup(mine, 3); err != nil || phi != 3 {
		t.Fatalf("Lookup = (%d, %v), want (3, nil)", phi, err)
	}
	phis := make([]int, 2)
	if _, err := h.LookupBatch(mine, []int{1, 2}, phis); err != nil || phis[0] != 1 || phis[1] != 2 {
		t.Fatalf("LookupBatch = (%v, %v)", phis, err)
	}
	if res, err := h.ApplyBatch(mine, fault(0)); err != nil || res.Epoch != 1 || res.Applied != 1 {
		t.Fatalf("ApplyBatch = (%+v, %v), want epoch 1", res, err)
	}

	for _, tc := range []struct {
		name string
		do   func() error
		is   error // must match
		not  error // must not, when set
	}{
		{"404 unknown instance", lookup(missing, 0), fleet.ErrNotFound, nil},
		{"403 + X-Ftnet-Owner wrong shard", lookup(foreign, 0), fleet.ErrWrongShard, fleet.ErrReadOnly},
		{"403 read-only replica", apply(ro, mine, fault(1)), fleet.ErrReadOnly, fleet.ErrWrongShard},
		{"409 double fault", apply(h, mine, fault(0)), fleet.ErrConflict, nil},
		{"409 budget exhausted", apply(h, mine, fault(1)), fleet.ErrConflict, nil},
		{"503 staged arrival, read", lookup(arriving, 0), fleet.ErrUnavailable, nil},
		{"503 staged arrival, write", apply(h, arriving, fault(0)), fleet.ErrUnavailable, nil},
		{"400 node out of range", apply(h, mine, fault(1<<20)), fleet.ErrInvalid, fleet.ErrConflict},
		{"400 target out of range", lookup(mine, 1<<20), fleet.ErrInvalid, nil},
	} {
		err := tc.do()
		switch {
		case err == nil:
			t.Errorf("%s: succeeded", tc.name)
		case wire.IsTransport(err):
			t.Errorf("%s: %v reported as a transport failure", tc.name, err)
		case !errors.Is(err, tc.is):
			t.Errorf("%s: %v does not match %v", tc.name, err, tc.is)
		case tc.not != nil && errors.Is(err, tc.not):
			t.Errorf("%s: %v matches %v", tc.name, err, tc.not)
		}
	}
	if _, _, err := h.Lookup(foreign, 0); fleet.WrongShardOwner(err) != ownerURL {
		t.Errorf("wrong-shard owner = %q, want %q", fleet.WrongShardOwner(err), ownerURL)
	}

	// No response at all is the one thing that is not a category: the
	// request's fate is unknown.
	ts.Close()
	if _, err := h.ApplyBatch(mine, fault(2)); !wire.IsTransport(err) {
		t.Errorf("ApplyBatch to a closed daemon: %v, want a transport failure", err)
	}
}
