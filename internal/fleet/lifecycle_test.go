package fleet

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"ftnet/internal/commit"
	"ftnet/internal/journal"
	sharding "ftnet/internal/shard"
)

// The lifecycle tests hold instance.go's phase table to its word: what
// each phase tells every kind of request, and which transitions apply
// from it. The copies are registered the whole time — the window
// between a retire and the leave that follows it — so the phase alone
// decides the answers.

var (
	lifecycleSpec = Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	allPhases     = []phase{phaseLive, phaseArriving, phaseFenced, phaseMoved, phaseGone}
	phaseNames    = map[phase]string{phaseLive: "live", phaseArriving: "arriving", phaseFenced: "fenced", phaseMoved: "moved", phaseGone: "gone"}
)

const lifecyclePeer = "http://a.example"

// lifecycleManager is member b of a two-member ring: what a copy is
// fenced for and moved to is member a.
func lifecycleManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(Options{})
	t.Cleanup(func() { m.Close() })
	m.SetTopology("b", map[string]string{"a": lifecyclePeer, "b": "http://b.example"}, 0)
	return m
}

func stageFrame(id string, token uint64) sharding.Migration {
	return sharding.Migration{ID: id, Token: token, Record: journal.Record{
		Op: journal.OpCheckpoint, ID: id, Spec: journalSpec(lifecycleSpec), Epoch: 4, Faults: []int{2}}}
}

// copyAt registers a copy of id in phase p, by the route the daemon
// takes there.
func copyAt(t *testing.T, m *Manager, id string, p phase) *Instance {
	t.Helper()
	if p == phaseArriving {
		if err := m.stageMigration(stageFrame(id, 7)); err != nil {
			t.Fatal(err)
		}
		return mustGet(t, m, id)
	}
	in, err := m.Create(id, lifecycleSpec)
	if err != nil {
		t.Fatal(err)
	}
	in.writeMu.Lock()
	defer in.writeMu.Unlock()
	if p == phaseFenced || p == phaseMoved {
		if err := in.fence(lifecyclePeer); err != nil {
			t.Fatal(err)
		}
	}
	switch p {
	case phaseMoved:
		in.retire(lifecyclePeer)
	case phaseGone:
		in.retire("")
	}
	if in.at() != p {
		t.Fatalf("copy of %s is %s, want %s", id, phaseNames[in.at()], phaseNames[p])
	}
	return in
}

func TestLifecyclePhaseAnswers(t *testing.T) {
	// want is an error category, or nil for "goes ahead".
	type answers struct {
		write, deleteErr error
		deleted          bool
		lookup           error
		state            string
		abort            bool
		commit           error
	}
	table := map[phase]answers{
		phaseLive:     {deleted: true, state: "committed", commit: ErrNotFound},
		phaseArriving: {write: ErrUnavailable, deleteErr: ErrUnavailable, lookup: ErrUnavailable, state: "staged", abort: true},
		phaseFenced:   {write: ErrWrongShard, deleteErr: ErrWrongShard, state: "committed", commit: ErrNotFound},
		phaseMoved:    {write: ErrWrongShard, deleteErr: ErrWrongShard, state: "absent", commit: ErrNotFound},
		phaseGone:     {write: ErrNotFound, state: "absent", commit: ErrNotFound},
	}
	is := func(t *testing.T, what string, err, want error) {
		t.Helper()
		if (want == nil) != (err == nil) || !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", what, err, want)
		}
		if want == ErrWrongShard && WrongShardOwner(err) != lifecyclePeer {
			t.Errorf("%s: redirect names %q, want %s", what, WrongShardOwner(err), lifecyclePeer)
		}
	}
	ev := []Event{{Kind: EventFault, Node: 1}}
	ring := sharding.New([]string{"a", "b"}, 0)
	n := 0
	for _, p := range allPhases {
		want := table[p]
		// Each probe gets its own manager and copy: some of them move it.
		probe := func(name string, f func(t *testing.T, m *Manager, id string, in *Instance)) {
			t.Run(phaseNames[p]+"/"+name, func(t *testing.T) {
				m := lifecycleManager(t)
				var id string
				for id == "" || ring.Owner(id) != "b" {
					n++
					id = fmt.Sprintf("copy-%d", n)
				}
				f(t, m, id, copyAt(t, m, id, p))
			})
		}
		probe("write", func(t *testing.T, m *Manager, id string, in *Instance) {
			_, err := in.ApplyBatch(ev) // a writer that held the pointer from before
			is(t, "write through the pointer", err, want.write)
			_, err = m.EventBatchBytes([]byte(id), []Event{{Kind: EventFault, Node: 5}})
			is(t, "write through the manager", err, want.write)
		})
		probe("delete", func(t *testing.T, m *Manager, id string, in *Instance) {
			ok, err := m.Delete(id)
			is(t, "delete", err, want.deleteErr)
			if ok != want.deleted {
				t.Errorf("delete reported %v, want %v", ok, want.deleted)
			}
			if _, still := m.Get(id); still == want.deleted {
				t.Errorf("registered after the delete: %v", still)
			}
			if !want.deleted && in.at() != p {
				t.Errorf("a refused delete moved the copy to %s", phaseNames[in.at()])
			}
		})
		probe("lookup", func(t *testing.T, m *Manager, id string, _ *Instance) {
			_, err := m.Lookup(id, 0)
			is(t, "lookup", err, want.lookup)
		})
		probe("MigrationState", func(t *testing.T, m *Manager, id string, _ *Instance) {
			if state, _ := m.migrationState(id); state != want.state {
				t.Errorf("state %q, want %q", state, want.state)
			}
		})
		probe("AbortMigration", func(t *testing.T, m *Manager, id string, in *Instance) {
			if got := m.abortMigration(id); got != want.abort {
				t.Errorf("abort reported %v, want %v", got, want.abort)
			}
			if _, still := m.Get(id); still == want.abort {
				t.Errorf("registered after the abort: %v", still)
			}
			if !want.abort && in.at() != p {
				t.Errorf("an abort that found no stage moved the copy to %s", phaseNames[in.at()])
			}
		})
		probe("CommitMigration", func(t *testing.T, m *Manager, id string, in *Instance) {
			epoch, err := m.commitMigration(stageFrame(id, 7))
			is(t, "commit", err, want.commit)
			after := p
			if want.commit == nil {
				after = phaseLive
				if epoch != 4 {
					t.Errorf("committed at epoch %d, want the staged 4", epoch)
				}
			}
			if in.at() != after {
				t.Errorf("the copy is %s after the commit, want %s", phaseNames[in.at()], phaseNames[after])
			}
		})
	}
}

// TestMigrateResolveByPhaseAndRing is resolve's whole decision: the
// phase of the copy held here, and the ring only where there is no held
// copy to decide. Every copy is made while the ring gives its id to this
// daemon; "peer" then installs a ring that gives it to another one.
func TestMigrateResolveByPhaseAndRing(t *testing.T) {
	const ringOwner = "http://ring-owner.example"
	const absent = phase(99) // no copy registered
	names := maps.Clone(phaseNames)
	names[absent] = "absent"
	id := idOwnedBy(t, "b")
	for _, p := range append([]phase{absent}, allPhases...) {
		for _, ringSaysPeer := range []bool{false, true} {
			m := lifecycleManager(t)
			var in *Instance
			if p != absent {
				in = copyAt(t, m, id, p)
			}
			if ringSaysPeer {
				m.SetTopology("a", map[string]string{"a": "http://b.example", "b": ringOwner}, 0)
			}
			var want error // nil: the copy
			switch {
			case p == phaseArriving:
				want = ErrUnavailable
			case ringSaysPeer && p != phaseLive && p != phaseFenced:
				want = ErrWrongShard
			case p == absent:
				want = ErrNotFound
			}
			check := func(form string, got *Instance, err error) {
				t.Helper()
				name := fmt.Sprintf("%s copy, ring says peer=%v, id as %s", names[p], ringSaysPeer, form)
				if !errors.Is(err, want) || (want == nil && got != in) {
					t.Errorf("%s: (%p, %v), want (%p, %v)", name, got, err, in, want)
				}
				if want == ErrWrongShard && WrongShardOwner(err) != ringOwner {
					t.Errorf("%s: redirect names %q, want the ring owner %s", name, WrongShardOwner(err), ringOwner)
				}
			}
			got, err := resolve(m, id)
			check("string", got, err)
			got, err = resolve(m, []byte(id))
			check("bytes", got, err)
			// The refusal a writer is owed is the copy's own, not the ring's.
			if p == phaseFenced {
				_, err := m.EventBatch(id, []Event{{Kind: EventFault, Node: 1}})
				if !errors.Is(err, ErrWrongShard) || WrongShardOwner(err) != lifecyclePeer {
					t.Errorf("write on the fenced copy, ring says peer=%v: %v, want ErrWrongShard naming %s", ringSaysPeer, err, lifecyclePeer)
				}
			}
		}
	}
}

func TestLifecycleTransitions(t *testing.T) {
	m := lifecycleManager(t)
	// at builds an unregistered copy in phase p.
	at := func(p phase) *Instance {
		in, err := m.restore(stageFrame("x", 7).Record, p)
		if err != nil {
			t.Fatal(err)
		}
		if p == phaseFenced || p == phaseMoved {
			in.peer = lifecyclePeer
		}
		return in
	}
	apply := map[string]func(in *Instance){
		"fence":         func(in *Instance) { in.fence(lifecyclePeer) },
		"unfence":       (*Instance).unfence,
		"open":          (*Instance).open,
		"retire":        func(in *Instance) { in.retire("") },
		"retire toward": func(in *Instance) { in.retire(lifecyclePeer) },
	}
	// Every legal move. From any other phase the transition is refused:
	// the copy stays what it was.
	type move struct {
		transition string
		from       phase
	}
	legal := map[move]phase{
		{"fence", phaseLive}:             phaseFenced,
		{"unfence", phaseFenced}:         phaseLive,
		{"open", phaseArriving}:          phaseLive,
		{"retire", phaseLive}:            phaseGone,
		{"retire", phaseArriving}:        phaseGone,
		{"retire", phaseFenced}:          phaseGone,
		{"retire toward", phaseLive}:     phaseMoved,
		{"retire toward", phaseArriving}: phaseMoved,
		{"retire toward", phaseFenced}:   phaseMoved,
	}
	for name, f := range apply {
		for _, from := range allPhases {
			in := at(from)
			in.writeMu.Lock()
			f(in)
			in.writeMu.Unlock()
			want, ok := legal[move{name, from}]
			if !ok {
				want = from
			}
			if in.at() != want {
				t.Errorf("%s on %s: the copy is %s, want %s", name, phaseNames[from], phaseNames[in.at()], phaseNames[want])
			}
			// A fenced or moved copy names its peer, a live or arriving one
			// has none (a gone one may keep the peer it was fenced for).
			if peered := want == phaseFenced || want == phaseMoved; want != phaseGone && peered != (in.peer == lifecyclePeer) {
				t.Errorf("%s on %s: a %s copy with peer %q", name, phaseNames[from], phaseNames[want], in.peer)
			}
		}
	}
	// What fence refuses with is what refuse says about the copy.
	for from, want := range map[phase]error{phaseArriving: ErrUnavailable, phaseFenced: ErrWrongShard, phaseMoved: ErrWrongShard, phaseGone: ErrNotFound} {
		if err := at(from).fence(lifecyclePeer); !errors.Is(err, want) {
			t.Errorf("fence on %s: %v, want %v", phaseNames[from], err, want)
		}
	}
	// The way back is to where the copy was, peer and all.
	for _, from := range allPhases {
		in := at(from)
		in.retire("")()
		if peered := from == phaseFenced || from == phaseMoved; in.at() != from || (in.peer == lifecyclePeer) != peered {
			t.Errorf("retire and undo on %s: the copy is %s with peer %q", phaseNames[from], phaseNames[in.at()], in.peer)
		}
	}
}

// TestResetFromCheckpointRefusedGroupLeavesFleet: a follower handed a
// checkpoint group it must refuse — a fault set no instance can hold, or
// a record that is no checkpoint — keeps the fleet, the log position and
// the stream it had; its leader's next entry still applies. (The reset
// used to drop every instance first and stop at the bad record: the
// follower then failed every later entry for the instances it had lost
// until a restart replayed its journal.)
func TestResetFromCheckpointRefusedGroupLeavesFleet(t *testing.T) {
	m := NewManager(Options{})
	t.Cleanup(func() { m.Close() })
	replicate := func(rec journal.Record) error {
		return m.replicateEntry(commit.Entry{Seq: m.NextSeq(), Rec: rec})
	}
	for _, rec := range []journal.Record{
		{Op: journal.OpCreate, ID: "a", Spec: journalSpec(lifecycleSpec)},
		{Op: journal.OpCreate, ID: "b", Spec: journalSpec(lifecycleSpec)},
		{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 1, Faults: []int{3}},
		{Op: journal.OpTransition, ID: "b", Epoch: 1, Applied: 1, Faults: []int{7}},
	} {
		if err := replicate(rec); err != nil {
			t.Fatal(err)
		}
	}
	cp := func(id string, epoch uint64, faults ...int) journal.Record {
		return journal.Record{Op: journal.OpCheckpoint, ID: id, Spec: journalSpec(lifecycleSpec), Epoch: epoch, Faults: faults}
	}
	before, seq := registryOf(m), m.NextSeq()
	groups := map[string][]journal.Record{
		"duplicate fault in the second record": {cp("a", 9, 1), cp("c", 2, 5, 5)},
		"over budget in the second record":     {cp("a", 9, 1), cp("b", 2, 1, 2, 3)},
		"a transition in the group":            {cp("a", 9, 1), {Op: journal.OpTransition, ID: "b", Epoch: 2, Applied: 1, Faults: []int{7, 8}}},
		"an unknown kind":                      {cp("a", 9, 1), {Op: journal.OpCheckpoint, ID: "b", Spec: journal.Spec{Kind: "torus", M: 2, H: 4, K: 2}}},
		"the same id twice":                    {cp("a", 9, 1), cp("a", 10)},
	}
	for name, group := range groups {
		if err := m.resetFromCheckpoint(40, 3, group); err == nil {
			t.Fatalf("%s: the group was installed", name)
		}
		if after := registryOf(m); !maps.Equal(after, before) || m.NextSeq() != seq {
			t.Fatalf("%s: the refused group moved the fleet from %+v (next seq %d) to %+v (next seq %d)",
				name, before, seq, after, m.NextSeq())
		}
		if term, _ := m.pipe.log.Term(); term != 0 {
			t.Fatalf("%s: the refused group's term %d was adopted", name, term)
		}
	}
	if err := replicate(journal.Record{Op: journal.OpTransition, ID: "b", Epoch: 2, Applied: 1, Faults: []int{7, 8}}); err != nil {
		t.Fatalf("the leader's next entry after the refused groups: %v", err)
	}
	// And a group that verifies replaces the fleet whole.
	if err := m.resetFromCheckpoint(40, 3, []journal.Record{cp("a", 9, 1), cp("c", 2, 5)}); err != nil {
		t.Fatal(err)
	}
	checkFleet(t, m, map[string]expectedState{"a": {lifecycleSpec, 9, []int{1}}, "c": {lifecycleSpec, 2, []int{5}}})
	if term, _ := m.pipe.log.Term(); m.NextSeq() != 41 || term != 3 {
		t.Fatalf("after the reset: next seq %d term %d, want 41 and 3", m.NextSeq(), term)
	}
	if in := before["b"].in; in.at() != phaseGone {
		t.Fatalf("the copy the reset dropped is %s, want gone", phaseNames[in.at()])
	}
}
