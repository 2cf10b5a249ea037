package ft

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func mustSnapshot(t *testing.T, nTarget, nHost, budget int) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(nTarget, nHost, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotZeroFault(t *testing.T) {
	s := mustSnapshot(t, 16, 18, 2)
	if s.Epoch() != 0 || s.NumFaults() != 0 || s.SparesFree() != 2 {
		t.Fatalf("zero snapshot: epoch %d faults %d spares %d", s.Epoch(), s.NumFaults(), s.SparesFree())
	}
	for x := 0; x < 16; x++ {
		if s.Phi(x) != x {
			t.Fatalf("healthy Phi(%d) = %d, want identity", x, s.Phi(x))
		}
	}
	if _, err := NewSnapshot(16, 18, 3); err == nil {
		t.Error("budget above spare count accepted")
	}
	if _, err := NewSnapshot(16, 18, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestSnapshotApplyBatchMatchesOneShot(t *testing.T) {
	s := mustSnapshot(t, 16, 20, 4)
	next, err := s.Apply([]Change{{Node: 3}, {Node: 11}, {Node: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 {
		t.Fatalf("batch advanced epoch to %d, want exactly 1", next.Epoch())
	}
	want, err := NewMapping(16, 20, []int{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 16; x++ {
		if next.Phi(x) != want.Phi(x) {
			t.Fatalf("Phi(%d) = %d, want %d", x, next.Phi(x), want.Phi(x))
		}
	}
	// The source snapshot is untouched.
	if s.Epoch() != 0 || s.NumFaults() != 0 || s.Phi(3) != 3 {
		t.Fatalf("Apply mutated its receiver: %+v", s)
	}

	// Repair inside a batch, including a node faulted by the same batch.
	again, err := next.Apply([]Change{{Node: 3, Repair: true}, {Node: 0}, {Node: 0, Repair: true}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch() != 2 || again.NumFaults() != 2 {
		t.Fatalf("epoch %d faults %v", again.Epoch(), again.Faults())
	}
}

func TestSnapshotApplyAllOrNothing(t *testing.T) {
	s := mustSnapshot(t, 16, 18, 2)
	cases := []struct {
		name  string
		batch []Change
		cat   error // nil means plain invalid input
	}{
		{"empty", nil, nil},
		{"out of range", []Change{{Node: 18}}, nil},
		{"negative", []Change{{Node: -1}}, nil},
		{"tail invalid", []Change{{Node: 1}, {Node: 99}}, nil},
		{"double fault in batch", []Change{{Node: 5}, {Node: 5}}, ErrConflict},
		{"repair healthy", []Change{{Node: 5, Repair: true}}, ErrConflict},
		{"over budget", []Change{{Node: 1}, {Node: 2}, {Node: 3}}, ErrBudget},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			next, err := s.Apply(c.batch)
			if err == nil {
				t.Fatalf("batch %v accepted (snapshot %v)", c.batch, next.Faults())
			}
			if next != nil {
				t.Fatalf("rejected batch returned a snapshot %v", next.Faults())
			}
			if c.cat != nil && !errors.Is(err, c.cat) {
				t.Fatalf("error %v not in category %v", err, c.cat)
			}
		})
	}
	// Budget rejections are not conflicts of the ErrConflict kind and
	// vice versa, so callers can count the causes separately.
	_, err := s.Apply([]Change{{Node: 1}, {Node: 2}, {Node: 3}})
	if errors.Is(err, ErrConflict) {
		t.Errorf("budget error %v matches ErrConflict", err)
	}
}

// TestSnapshotApplyFaultsImmutableUnderAliasing pins the contract that
// lets journal records, watch entries and Mapping().Faults alias the
// slice Apply publishes: it is clipped, so an append through any alias
// reallocates instead of writing where another holder (or a later
// Apply) can see, and a rejected batch — even one whose valid prefix
// already spliced the working copy — leaves the receiver as it was.
func TestSnapshotApplyFaultsImmutableUnderAliasing(t *testing.T) {
	const nTarget, budget = 32, 6
	apply := func(s *Snapshot, batch ...Change) *Snapshot {
		t.Helper()
		next, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	old := apply(mustSnapshot(t, nTarget, nTarget+budget, budget), Change{Node: 5}, Change{Node: 20}, Change{Node: 9})
	// Fault + repair nets zero: a batch smaller than its reservation,
	// where an unclipped slice would keep spare capacity.
	cur := apply(old, Change{Node: 30}, Change{Node: 9, Repair: true}, Change{Node: 2}, Change{Node: 30, Repair: true})
	oldPhi, curPhi := old.Mapping().PhiSlice(), cur.Mapping().PhiSlice()

	record := cur.Mapping().Faults // what the committed journal record carries
	a, b := append(record, 1), append(cur.Mapping().Faults, 0)
	_ = append(old.Mapping().Faults, 0, 1, 2)
	if a[len(record)] != 1 || b[len(record)] != 0 {
		t.Fatalf("two appends through aliases of one fault slice share memory: %v %v", a, b)
	}
	if _, err := cur.Apply([]Change{{Node: 5, Repair: true}, {Node: 0}, {Node: 99}}); err == nil {
		t.Fatal("out-of-range change accepted")
	}
	next := apply(cur, Change{Node: 2, Repair: true}, Change{Node: 0}, Change{Node: 37})

	if !slices.Equal(old.Mapping().Faults, []int{5, 9, 20}) || !slices.Equal(old.Mapping().PhiSlice(), oldPhi) {
		t.Errorf("older snapshot changed: faults %v", old.Mapping().Faults)
	}
	if !slices.Equal(cur.Mapping().Faults, []int{2, 5, 20}) || !slices.Equal(cur.Mapping().PhiSlice(), curPhi) {
		t.Errorf("receiver changed: faults %v", cur.Mapping().Faults)
	}
	fresh, err := NewMapping(nTarget, nTarget+budget, []int{37, 0, 5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(next.Mapping().Faults, fresh.Faults) || !slices.Equal(next.Mapping().PhiSlice(), fresh.PhiSlice()) {
		t.Errorf("after apply: faults %v, fresh NewMapping has %v", next.Mapping().Faults, fresh.Faults)
	}
}

// TestSnapshotApplyAllocs pins the in-place construction: a transition
// allocates the fault slice (once, with room for the whole batch) and
// the snapshot that holds the mapping by value — nothing else, even on
// a burst that fills the budget from empty.
func TestSnapshotApplyAllocs(t *testing.T) {
	const budget = 8
	empty := mustSnapshot(t, 64, 64+budget, budget)
	fill := make([]Change, budget)
	for i := range fill {
		fill[i] = Change{Node: 7 * i}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := empty.Apply(fill); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("full-budget burst: Apply allocates %v times, want 2 (fault slice + snapshot)", allocs)
	}
}

// TestCheckRestoreMatchesRestore pins CheckRestore to Restore over
// random strictly ascending fault sets — valid ones, sets over the
// budget, faults out of range, budgets beyond the spares: both accept
// or both refuse, with the same error category. A set that is not
// strictly ascending is refused outright, so nothing Restore would have
// sorted first can pass the check; and the check allocates nothing.
func TestCheckRestoreMatchesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	accepted, refused := 0, 0
	for trial := 0; trial < 20000; trial++ {
		nTarget := rng.Intn(64)
		nHost := nTarget + rng.Intn(10)
		budget := rng.Intn(12) - 1 // -1 .. 10: below zero, within and beyond the spares
		faults := make([]int, rng.Intn(12))
		v := rng.Intn(6) - 2 // may start below 0 and run past nHost
		for i := range faults {
			faults[i] = v
			v += 1 + rng.Intn(nHost/4+2)
		}
		_, want := Restore(nTarget, nHost, budget, 1, faults)
		got := CheckRestore(nTarget, nHost, budget, faults)
		if (got == nil) != (want == nil) || errors.Is(got, ErrBudget) != errors.Is(want, ErrBudget) {
			t.Fatalf("nTarget %d nHost %d budget %d faults %v: CheckRestore says %v, Restore says %v",
				nTarget, nHost, budget, faults, got, want)
		}
		if got == nil {
			accepted++
		} else {
			refused++
		}
	}
	if accepted < 1000 || refused < 1000 {
		t.Fatalf("the sweep accepted %d and refused %d sets; it must exercise both", accepted, refused)
	}

	for _, faults := range [][]int{{3, 3}, {5, 3}, {1, 4, 4}, {1, 4, 2}} {
		if err := CheckRestore(16, 20, 4, faults); err == nil {
			t.Errorf("CheckRestore accepted %v, which is not strictly ascending", faults)
		}
	}
	sorted := []int{1, 4, 9, 17}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := CheckRestore(16, 20, 4, sorted); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CheckRestore allocated %.0f objects, want 0", allocs)
	}
}
