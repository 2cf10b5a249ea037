package fleet

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"ftnet/internal/ft"
)

// The one oracle fleet's tests hold an instance to. The paper makes its
// whole state a pure function of its sorted fault set: phi(x) = x + j
// (Section III-A), composed with psi into B_{2,h} for shuffle-exchange.
// So every door a copy is read through must answer as a fresh
// ft.NewMapping over that fault set does.

// expectedState is what one instance must hold.
type expectedState struct {
	spec   Spec
	epoch  uint64
	faults []int
}

// stateOf captures what a quiescent m holds, for a copy of it to match,
// holding each instance it captures to checkPhi first: the source of a
// copy is the side whose phi was applied incrementally.
func stateOf(t *testing.T, m *Manager) map[string]expectedState {
	t.Helper()
	out := make(map[string]expectedState)
	for _, id := range m.list() {
		if in, ok := m.Get(id); ok {
			s := in.Snapshot()
			checkPhi(t, in.Spec(), s.Faults(), in.Lookup)
			out[id] = expectedState{spec: in.Spec(), epoch: s.Epoch(), faults: s.Faults()}
		}
	}
	return out
}

// checkFleet requires m to hold exactly want: the same ids, each with
// its spec, epoch and fault set, and answering checkPhi through Lookup.
func checkFleet(t *testing.T, m *Manager, want map[string]expectedState) {
	t.Helper()
	if ids, wids := m.list(), slices.Sorted(maps.Keys(want)); !slices.Equal(ids, wids) {
		t.Fatalf("instances %v, want %v", ids, wids)
	}
	for id, w := range want {
		in := mustGet(t, m, id)
		s := in.Snapshot()
		switch {
		case in.Spec() != w.spec:
			t.Fatalf("%s: spec %+v, want %+v", id, in.Spec(), w.spec)
		case s.Epoch() != w.epoch:
			t.Fatalf("%s: epoch %d, want %d", id, s.Epoch(), w.epoch)
		case !slices.Equal(s.Faults(), w.faults):
			t.Fatalf("%s: faults %v, want %v", id, s.Faults(), w.faults)
		}
		checkPhi(t, w.spec, w.faults, in.Lookup)
	}
}

// checkPhi requires lookup to answer every target x of spec as a fresh
// ft.NewMapping over faults does: at x for de Bruijn, and for
// shuffle-exchange as ft.SEMapViaDB composes it with psi from
// ft.NewSEViaDB.
func checkPhi(t *testing.T, spec Spec, faults []int, lookup func(x int) (int, error)) {
	t.Helper()
	want, err := freshPhi(spec, faults)
	if err != nil {
		t.Fatalf("%+v: fault set %v: %v", spec, faults, err)
	}
	for x, w := range want {
		got, err := lookup(x)
		if err != nil {
			t.Fatalf("%+v: phi(%d): %v", spec, x, err)
		}
		if got != w {
			t.Fatalf("%+v: phi(%d) = %d, a fresh mapping over %v says %d", spec, x, got, faults, w)
		}
	}
}

// psis caches psi by ft.SEParams: ft.NewSEViaDB builds the host graph
// too, and the recovery sweeps check thousands of states.
var psis sync.Map

// freshPhi is the phi slice a fresh mapping over faults gives spec's
// targets.
func freshPhi(spec Spec, faults []int) ([]int, error) {
	if spec.Kind == KindShuffle {
		p := ft.SEParams{H: spec.H, K: spec.K}
		psi, ok := psis.Load(p)
		if !ok {
			_, fresh, err := ft.NewSEViaDB(p)
			if err != nil {
				return nil, err
			}
			psi, _ = psis.LoadOrStore(p, fresh)
		}
		return ft.SEMapViaDB(p, psi.([]int), faults)
	}
	nTarget, nHost := spec.Sizes()
	fresh, err := ft.NewMapping(nTarget, nHost, faults)
	if err != nil {
		return nil, err
	}
	return fresh.PhiSlice(), nil
}
