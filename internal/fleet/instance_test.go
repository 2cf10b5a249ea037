package fleet

import (
	"strings"
	"testing"
)

func newTestInstance(t *testing.T, spec Spec) *Instance {
	t.Helper()
	in, err := newInstance("test", spec, newPipeline())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstanceLifecycle(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	in := newTestInstance(t, spec)

	// Zero faults: identity placement.
	for _, x := range []int{0, 7, 15} {
		if phi, err := in.Lookup(x); err != nil || phi != x {
			t.Fatalf("healthy Lookup(%d) = %d, %v; want identity", x, phi, err)
		}
	}

	res, err := in.Apply(Event{Kind: EventFault, Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.NumFaults != 1 || res.Budget != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
	// The rank mapping shifts everything at or above the fault up by one.
	if phi, _ := in.Lookup(2); phi != 2 {
		t.Errorf("Lookup(2) = %d, want 2", phi)
	}
	if phi, _ := in.Lookup(3); phi != 4 {
		t.Errorf("Lookup(3) = %d, want 4", phi)
	}

	if _, err := in.Apply(Event{Kind: EventFault, Node: 11}); err != nil {
		t.Fatal(err)
	}
	// Cross-check the full map against a one-shot recompute.
	checkPhi(t, spec, []int{3, 11}, in.Lookup)

	// Repair brings the map back.
	if _, err := in.Apply(Event{Kind: EventRepair, Node: 3}); err != nil {
		t.Fatal(err)
	}
	checkPhi(t, spec, []int{11}, in.Lookup)

	info := in.Info()
	if info.Epoch != 3 || len(info.Faults) != 1 || info.Faults[0] != 11 || info.SparesFree != 1 {
		t.Fatalf("unexpected info %+v", info)
	}
}

func TestInstanceRejectsInvalidEvents(t *testing.T) {
	cases := []struct {
		name string
		prep []Event
		ev   Event
		want string
	}{
		{"out of range", nil, Event{EventFault, 17}, "out of range"},
		{"negative", nil, Event{EventFault, -1}, "out of range"},
		{"unknown kind", nil, Event{"explode", 3}, "unknown event kind"},
		{"repair healthy", nil, Event{EventRepair, 5}, "not faulty"},
		{"double fault", []Event{{EventFault, 5}}, Event{EventFault, 5}, "already faulty"},
		{"over budget", []Event{{EventFault, 5}}, Event{EventFault, 6}, "budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := newTestInstance(t, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1})
			for _, ev := range c.prep {
				if _, err := in.Apply(ev); err != nil {
					t.Fatal(err)
				}
			}
			before := in.Info()
			_, err := in.Apply(c.ev)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want containing %q", err, c.want)
			}
			after := in.Info()
			if after.Epoch != before.Epoch || len(after.Faults) != len(before.Faults) {
				t.Fatalf("rejected event mutated state: %+v -> %+v", before, after)
			}
			if after.Rejected != before.Rejected+1 {
				t.Fatalf("rejected counter = %d, want %d", after.Rejected, before.Rejected+1)
			}
		})
	}
}

// TestInstanceApplyBatchAtomic pins the burst contract: a valid batch
// applies whole with the epoch advancing exactly once; a batch with
// any invalid event applies nothing.
func TestInstanceApplyBatchAtomic(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	in := newTestInstance(t, spec)
	res, err := in.ApplyBatch([]Event{
		{Kind: EventFault, Node: 3},
		{Kind: EventFault, Node: 11},
		{Kind: EventFault, Node: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.NumFaults != 3 || res.Applied != 3 {
		t.Fatalf("burst result %+v, want epoch 1, 3 faults, 3 applied", res)
	}
	checkPhi(t, spec, []int{3, 7, 11}, in.Lookup)

	// A burst whose last event is invalid must leave the state at the
	// pre-burst epoch with the pre-burst faults: all-or-nothing.
	before := in.Info()
	_, err = in.ApplyBatch([]Event{
		{Kind: EventRepair, Node: 3},
		{Kind: EventRepair, Node: 5}, // 5 is healthy: invalid
	})
	if err == nil {
		t.Fatal("partially-invalid burst accepted")
	}
	after := in.Info()
	if after.Epoch != before.Epoch || len(after.Faults) != len(before.Faults) {
		t.Fatalf("rejected burst mutated state: %+v -> %+v", before, after)
	}
	checkPhi(t, spec, []int{3, 7, 11}, in.Lookup)

	// Repair burst drains the faults in one transition.
	res, err = in.ApplyBatch([]Event{
		{Kind: EventRepair, Node: 3},
		{Kind: EventRepair, Node: 7},
		{Kind: EventRepair, Node: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 || res.NumFaults != 0 {
		t.Fatalf("drain result %+v, want epoch 2, 0 faults", res)
	}
}

// TestInstanceRejectedByCause pins the rejected-event accounting split:
// budget-exceeded, state conflicts, and invalid input count separately.
func TestInstanceRejectedByCause(t *testing.T) {
	in := newTestInstance(t, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1})
	if _, err := in.Apply(Event{Kind: EventFault, Node: 5}); err != nil {
		t.Fatal(err)
	}
	reject := func(ev Event) {
		t.Helper()
		if _, err := in.Apply(ev); err == nil {
			t.Fatalf("event %+v accepted", ev)
		}
	}
	reject(Event{Kind: EventFault, Node: 6})      // budget (k=1 exhausted)
	reject(Event{Kind: EventFault, Node: 5})      // conflict: already faulty
	reject(Event{Kind: EventRepair, Node: 6})     // conflict: not faulty
	reject(Event{Kind: EventFault, Node: 99})     // invalid: out of range
	reject(Event{Kind: "explode", Node: 0})       // invalid: unknown kind
	if _, err := in.ApplyBatch(nil); err == nil { // invalid: empty batch
		t.Fatal("empty batch accepted")
	}
	info := in.Info()
	want := RejectedStats{Budget: 1, Conflict: 2, Invalid: 3}
	if info.RejectedBy != want {
		t.Fatalf("rejected by cause = %+v, want %+v", info.RejectedBy, want)
	}
	if info.Rejected != want.Total() {
		t.Fatalf("rejected total = %d, want %d", info.Rejected, want.Total())
	}
}

// TestInstanceSnapshotImmutable pins that a held snapshot keeps
// answering for its epoch after later events.
func TestInstanceSnapshotImmutable(t *testing.T) {
	in := newTestInstance(t, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2})
	if _, err := in.Apply(Event{Kind: EventFault, Node: 3}); err != nil {
		t.Fatal(err)
	}
	held := in.Snapshot()
	if _, err := in.Apply(Event{Kind: EventFault, Node: 4}); err != nil {
		t.Fatal(err)
	}
	if held.Epoch() != 1 || held.NumFaults() != 1 || held.Phi(3) != 4 {
		t.Fatalf("held snapshot changed: epoch %d faults %v", held.Epoch(), held.Faults())
	}
	if cur := in.Snapshot(); cur.Epoch() != 2 || cur.NumFaults() != 2 {
		t.Fatalf("current snapshot epoch %d faults %v", cur.Epoch(), cur.Faults())
	}
}

func TestInstanceShuffleMatchesSEMapViaDB(t *testing.T) {
	spec := Spec{Kind: KindShuffle, H: 4, K: 3}
	in := newTestInstance(t, spec)
	faults := []int{1, 8, 17}
	for _, f := range faults {
		if _, err := in.Apply(Event{Kind: EventFault, Node: f}); err != nil {
			t.Fatal(err)
		}
	}
	checkPhi(t, spec, faults, in.Lookup)
}

// phiOf collects the instance's whole embedding through RangePhi: the
// dense view tests compare copies of an instance by.
func phiOf(in *Instance) []int {
	phi := make([]int, 0, in.NTarget())
	in.RangePhi(func(_, v int) bool {
		phi = append(phi, v)
		return true
	})
	return phi
}

// TestInstanceRangePhiAgreesWithLookup pins the target-indexed
// contract of the dense readers: the full sweep and any window answer
// x with Lookup(x), for both kinds — in particular for shuffle, where
// they must compose the psi embedding — and stop when told to.
func TestInstanceRangePhiAgreesWithLookup(t *testing.T) {
	specs := []Spec{
		{Kind: KindDeBruijn, M: 2, H: 4, K: 2},
		{Kind: KindShuffle, H: 4, K: 2},
	}
	for _, spec := range specs {
		in := newTestInstance(t, spec)
		for _, f := range []int{1, 9} {
			if _, err := in.Apply(Event{Kind: EventFault, Node: f}); err != nil {
				t.Fatal(err)
			}
		}
		check := func(reader string, x, got int) {
			t.Helper()
			phi, err := in.Lookup(x)
			if err != nil {
				t.Fatal(err)
			}
			if got != phi {
				t.Fatalf("%s: %s answers %d with %d but Lookup(%d) = %d", spec.Kind, reader, x, got, x, phi)
			}
		}
		slice := phiOf(in)
		if len(slice) != in.NTarget() {
			t.Fatalf("%s: RangePhi visited %d targets, want %d", spec.Kind, len(slice), in.NTarget())
		}
		for x, phi := range slice {
			check("RangePhi", x, phi)
		}
		seen := 0
		in.RangePhiWindow(3, 5, func(x, phi int) bool {
			if x != 3+seen {
				t.Fatalf("%s: window visited %d, want %d", spec.Kind, x, 3+seen)
			}
			check("RangePhiWindow", x, phi)
			seen++
			return true
		})
		if seen != 5 {
			t.Fatalf("%s: window of 5 visited %d targets", spec.Kind, seen)
		}
		seen = 0
		in.RangePhi(func(int, int) bool { seen++; return seen < 4 })
		if seen != 4 {
			t.Fatalf("%s: RangePhi went on for %d targets after fn said stop at 4", spec.Kind, seen)
		}
	}
}

func TestInstanceLookupOutOfRange(t *testing.T) {
	in := newTestInstance(t, Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1})
	if _, err := in.Lookup(16); err == nil {
		t.Error("Lookup(16) on 16-node target accepted")
	}
	if _, err := in.Lookup(-1); err == nil {
		t.Error("Lookup(-1) accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Kind: KindDeBruijn, M: 2, H: 4, K: 2},
		{Kind: KindDeBruijn, M: 3, H: 3, K: 0},
		{Kind: KindShuffle, H: 5, K: 4},
		{Kind: KindShuffle, M: 2, H: 3, K: 1},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	bad := []Spec{
		{Kind: "torus", M: 2, H: 4, K: 1},
		{Kind: KindDeBruijn, M: 1, H: 4, K: 1},
		{Kind: KindDeBruijn, M: 2, H: 2, K: 1},
		{Kind: KindDeBruijn, M: 2, H: 4, K: -1},
		{Kind: KindShuffle, M: 3, H: 4, K: 1},
		{Kind: KindShuffle, H: 2, K: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}
