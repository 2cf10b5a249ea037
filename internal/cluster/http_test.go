package cluster

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/wire"
)

// TestHTTPAnswersInFleetCategories holds the JSON plane's Transport to
// its two promises: a refusal comes back in the category fleet.Client
// read it in (fleet's own table test drives every category; here one of
// each 403 kind shows the adapters pass them through, unmarked), and a
// request that got no answer comes back as a transport failure.
func TestHTTPAnswersInFleetCategories(t *testing.T) {
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 1}
	const ownerURL = "http://127.0.0.1:1" // named in hints, never up

	mgr := fleet.NewManager(fleet.Options{})
	ts := httptest.NewServer(fleet.NewHTTPHandler(mgr))
	t.Cleanup(ts.Close)
	if _, err := mgr.Create("mine", spec); err != nil {
		t.Fatal(err)
	}
	h := HTTP{HTTP: ts.Client(), Base: ts.URL}
	fault := func(node int) []fleet.Event { return []fleet.Event{{Kind: fleet.EventFault, Node: node}} }

	if phi, _, err := h.Lookup("mine", 3); err != nil || phi != 3 {
		t.Fatalf("Lookup = (%d, %v), want (3, nil)", phi, err)
	}
	phis := make([]int, 2)
	if _, err := h.LookupBatch("mine", []int{1, 2}, phis); err != nil || phis[0] != 1 || phis[1] != 2 {
		t.Fatalf("LookupBatch = (%v, %v)", phis, err)
	}
	if res, err := h.ApplyBatch("mine", fault(0)); err != nil || res.Epoch != 1 || res.Applied != 1 {
		t.Fatalf("ApplyBatch = (%+v, %v), want epoch 1", res, err)
	}

	// Every id it does not hold now belongs to a member that is not this
	// one; then the daemon turns read-only on top.
	mgr.SetTopology("a", map[string]string{"b": ownerURL}, 0)
	_, _, err := h.Lookup("theirs", 0)
	if !errors.Is(err, fleet.ErrWrongShard) || fleet.WrongShardOwner(err) != ownerURL || wire.IsTransport(err) {
		t.Errorf("Lookup on a spectator: %v, want a wrong-shard refusal naming %s", err, ownerURL)
	}
	if _, err := h.LookupBatch("theirs", []int{1, 2}, phis); !errors.Is(err, fleet.ErrWrongShard) {
		t.Errorf("LookupBatch on a spectator: %v, want a wrong-shard refusal", err)
	}
	mgr.SetReadOnly(true)
	_, err = h.ApplyBatch("mine", fault(1))
	if !errors.Is(err, fleet.ErrReadOnly) || errors.Is(err, fleet.ErrWrongShard) || wire.IsTransport(err) {
		t.Errorf("ApplyBatch on a read-only replica: %v, want the read-only refusal", err)
	}

	// No response at all is the one thing that is not a category: the
	// request's fate is unknown.
	ts.Close()
	if _, err := h.ApplyBatch("mine", fault(2)); !wire.IsTransport(err) {
		t.Errorf("ApplyBatch to a closed daemon: %v, want a transport failure", err)
	}
	if _, _, err := h.Lookup("mine", 0); !wire.IsTransport(err) {
		t.Errorf("Lookup on a closed daemon: %v, want a transport failure", err)
	}
}

// TestHTTPEscapesIDs is the misdelivery regression on the Transport: with
// "a/b" and "a%2Fb" both registered, a write and a read of either reach
// the instance they name — not the other one, and not the mux's 404.
func TestHTTPEscapesIDs(t *testing.T) {
	mgr := fleet.NewManager(fleet.Options{})
	ts := httptest.NewServer(fleet.NewHTTPHandler(mgr))
	t.Cleanup(ts.Close)
	h := HTTP{HTTP: ts.Client(), Base: ts.URL}
	ids := []string{"a/b", "a%2Fb", "a?b", "a#b", "a b"}
	for _, id := range ids {
		if _, err := mgr.Create(id, fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// One fault at node on each: phi(x) = x below it, x+1 from it on.
	for node, id := range ids {
		res, err := h.ApplyBatch(id, []fleet.Event{{Kind: fleet.EventFault, Node: node}})
		if err != nil || res.Epoch != 1 {
			t.Errorf("ApplyBatch(%q) = (%+v, %v), want epoch 1", id, res, err)
		}
	}
	for node, id := range ids {
		in, _ := mgr.Get(id)
		if got := in.Info().Faults; !reflect.DeepEqual(got, []int{node}) {
			t.Errorf("%q holds faults %v, want [%d]: a write was misdelivered", id, got, node)
		}
		if phi, _, err := h.Lookup(id, node); err != nil || phi != node+1 {
			t.Errorf("Lookup(%q, %d) = (%d, %v), want %d", id, node, phi, err, node+1)
		}
	}
}
