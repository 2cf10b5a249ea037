package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftnet/internal/commit"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
	sharding "ftnet/internal/shard"
)

// The crash-recovery property: a journaled Manager's on-disk log,
// replayed into a fresh Manager — in full, at every record prefix, or
// after an injected mid-record write failure — must reproduce exactly
// the state that replaying the same accepted transitions through
// ft.Snapshot.Apply produces: same epoch, same fault set, same Phi,
// bit for bit.

// expectedState is the model's per-instance view after one record.
type expectedState struct {
	epoch  uint64
	faults []int
}

// snapshotModel deep-copies the model's live state.
func snapshotModel(model map[string]*ft.Snapshot) map[string]expectedState {
	out := make(map[string]expectedState, len(model))
	for id, s := range model {
		out[id] = expectedState{epoch: s.Epoch(), faults: s.Faults()}
	}
	return out
}

// checkRecovered asserts a recovered manager matches a model state
// bit-identically: same instances, same epoch, same fault set, and the
// same Phi for every target (recomputed via ft.NewMapping).
func checkRecovered(t *testing.T, m *Manager, want map[string]expectedState, specs map[string]Spec) {
	t.Helper()
	if ids := m.List(); len(ids) != len(want) {
		t.Fatalf("recovered %d instances %v, want %d", len(ids), ids, len(want))
	}
	for id, ws := range want {
		in, ok := m.Get(id)
		if !ok {
			t.Fatalf("instance %s lost in recovery", id)
		}
		s := in.Snapshot()
		if s.Epoch() != ws.epoch {
			t.Fatalf("%s: epoch %d, want %d", id, s.Epoch(), ws.epoch)
		}
		if !slices.Equal(s.Faults(), ws.faults) {
			t.Fatalf("%s: faults %v, want %v", id, s.Faults(), ws.faults)
		}
		fresh, err := ft.NewMapping(s.NTarget(), s.NHost(), ws.faults)
		if err != nil {
			t.Fatalf("%s: recompute: %v", id, err)
		}
		for x := 0; x < s.NTarget(); x++ {
			if s.Phi(x) != fresh.Phi(x) {
				t.Fatalf("%s: phi(%d) = %d, recomputation says %d", id, x, s.Phi(x), fresh.Phi(x))
			}
		}
		if got := in.Spec(); got != specs[id] {
			t.Fatalf("%s: spec %+v, want %+v", id, got, specs[id])
		}
	}
}

// driveRandom pushes nOps random operations (creates, deletes, event
// batches) through a journaled manager while maintaining the oracle
// via ft.Snapshot.Apply. It returns the model snapshot after each
// appended record, keyed by record count, plus the final spec map.
func driveRandom(t *testing.T, rng *rand.Rand, m *Manager, nOps int) (perRecord []map[string]expectedState, specs map[string]Spec) {
	t.Helper()
	specPool := []Spec{
		{Kind: KindDeBruijn, M: 2, H: 4, K: 3},
		{Kind: KindDeBruijn, M: 3, H: 3, K: 2},
		{Kind: KindShuffle, H: 4, K: 2},
	}
	model := make(map[string]*ft.Snapshot)
	specs = make(map[string]Spec)
	live := []string{}
	nextID := 0

	record := func() { perRecord = append(perRecord, snapshotModel(model)) }

	for op := 0; op < nOps; op++ {
		switch r := rng.Float64(); {
		case r < 0.12 || len(live) == 0: // create
			id := fmt.Sprintf("i%d", nextID)
			nextID++
			spec := specPool[rng.Intn(len(specPool))]
			if _, err := m.Create(id, spec); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
			nTarget, nHost := TargetHostSizesSpec(spec)
			s, err := ft.NewSnapshot(nTarget, nHost, spec.K)
			if err != nil {
				t.Fatal(err)
			}
			model[id] = s
			specs[id] = spec
			live = append(live, id)
			record()
		case r < 0.16 && len(live) > 1: // delete
			i := rng.Intn(len(live))
			id := live[i]
			if ok, err := m.Delete(id); !ok || err != nil {
				t.Fatalf("delete %s: %v %v", id, ok, err)
			}
			delete(model, id)
			delete(specs, id)
			live = append(live[:i], live[i+1:]...)
			record()
		default: // event batch against the model oracle
			id := live[rng.Intn(len(live))]
			cur := model[id]
			n := 1 + rng.Intn(4)
			events := make([]Event, n)
			batch := make([]ft.Change, n)
			for i := range events {
				node := rng.Intn(cur.NHost())
				repair := rng.Intn(2) == 0
				kind := EventFault
				if repair {
					kind = EventRepair
				}
				events[i] = Event{Kind: kind, Node: node}
				batch[i] = ft.Change{Node: node, Repair: repair}
			}
			wantNext, wantErr := cur.Apply(batch)
			res, err := m.EventBatch(id, events)
			if wantErr != nil {
				if err == nil {
					t.Fatalf("%s: oracle rejected %v (%v) but manager accepted", id, events, wantErr)
				}
				continue // rejected: no record, no state change
			}
			if err != nil {
				t.Fatalf("%s: oracle accepted %v but manager said %v", id, events, err)
			}
			if res.Epoch != wantNext.Epoch() {
				t.Fatalf("%s: epoch %d, oracle says %d", id, res.Epoch, wantNext.Epoch())
			}
			model[id] = wantNext
			record()
		}
	}
	return perRecord, specs
}

// TestRecoverRandomSequencesFullAndEveryPrefix is the main property
// test: random traffic, then recovery from the full log AND from every
// record prefix, each checked bit-identically against the
// ft.Snapshot.Apply oracle at that point in history.
func TestRecoverRandomSequencesFullAndEveryPrefix(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var buf bytes.Buffer
			w := journal.NewWriter(&buf, journal.Options{Sync: journal.SyncAlways})
			m := NewManager(Options{Journal: w})
			perRecord, finalSpecs := driveRandom(t, rng, m, 150)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			// The log must frame exactly one record per accepted transition.
			recs, _, err := journal.ReadAll(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("journal unreadable: %v", err)
			}
			if len(recs) != len(perRecord) {
				t.Fatalf("journal has %d records, accepted %d transitions", len(recs), len(perRecord))
			}

			// Full recovery matches the final oracle state.
			m2 := NewManager(Options{})
			st, err := m2.Recover(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if st.Torn || st.Records != len(recs) {
				t.Fatalf("recover stats %+v, want %d clean records", st, len(recs))
			}
			checkRecovered(t, m2, perRecord[len(perRecord)-1], finalSpecs)

			// Recovery from EVERY record prefix matches the oracle at
			// that record. Prefixes land on frame boundaries, so each is
			// a clean log.
			offsets := recordOffsets(t, raw)
			specsAt := specsAtEachRecord(t, recs)
			for i, off := range offsets {
				mi := NewManager(Options{})
				if _, err := mi.Recover(bytes.NewReader(raw[:off])); err != nil {
					t.Fatalf("prefix %d (%d bytes): %v", i+1, off, err)
				}
				checkRecovered(t, mi, perRecord[i], specsAt[i])
			}
		})
	}
}

// recordOffsets returns the end offset of each record in raw.
func recordOffsets(t *testing.T, raw []byte) []int64 {
	t.Helper()
	var offs []int64
	jr := journal.NewReader(bytes.NewReader(raw))
	for {
		if _, err := jr.Next(); err != nil {
			return offs
		}
		offs = append(offs, jr.Offset())
	}
}

// specsAtEachRecord reconstructs the live spec map after each record
// (deletes remove, creates add), for prefix checking.
func specsAtEachRecord(t *testing.T, recs []journal.Record) []map[string]Spec {
	t.Helper()
	cur := make(map[string]Spec)
	out := make([]map[string]Spec, len(recs))
	for i, rec := range recs {
		switch rec.Op {
		case journal.OpCreate:
			cur[rec.ID] = Spec{Kind: Kind(rec.Spec.Kind), M: rec.Spec.M, H: rec.Spec.H, K: rec.Spec.K}
		case journal.OpDelete:
			delete(cur, rec.ID)
		}
		snap := make(map[string]Spec, len(cur))
		for id, sp := range cur {
			snap[id] = sp
		}
		out[i] = snap
	}
	return out
}

// TargetHostSizesSpec mirrors loadgen.TargetHostSizes without the
// import cycle (loadgen imports fleet).
func TargetHostSizesSpec(spec Spec) (nTarget, nHost int) {
	if spec.Kind == KindShuffle {
		p := ft.SEParams{H: spec.H, K: spec.K}
		return p.NTarget(), p.NHost()
	}
	p := ft.Params{M: spec.M, H: spec.H, K: spec.K}
	return p.NTarget(), p.NHost()
}

var errInjected = errors.New("injected write failure")

// failingWriter writes through to a buffer until its byte budget runs
// out, then fails — mid-record when the budget lands there, exactly
// like a crash between write() and fsync.
type failingWriter struct {
	buf    bytes.Buffer
	budget int
}

func (fw *failingWriter) Write(p []byte) (int, error) {
	if fw.budget <= 0 {
		return 0, errInjected
	}
	if len(p) > fw.budget {
		n, _ := fw.buf.Write(p[:fw.budget])
		fw.budget = 0
		return n, errInjected
	}
	fw.budget -= len(p)
	return fw.buf.Write(p)
}

// TestRecoverAfterInjectedCrash drives deterministic traffic into a
// journal whose underlying writer dies after N bytes, for a sweep of
// N. The durability contract under test: every transition acknowledged
// before the failure recovers bit-identically; the transition that hit
// the failure is rejected (ErrUnavailable), leaves the live snapshot
// unpublished, and its partial record is dropped as a torn tail.
func TestRecoverAfterInjectedCrash(t *testing.T) {
	for _, budget := range []int{0, 7, 13, 40, 64, 100, 200, 400, 800} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			fw := &failingWriter{budget: budget}
			// BufferSize 1 forces bufio to hit the failing writer on every
			// append (SyncAlways flushes per record anyway; this makes the
			// partial-write path deterministic).
			w := journal.NewWriter(fw, journal.Options{Sync: journal.SyncAlways, BufferSize: 1})
			m := NewManager(Options{Journal: w})
			rng := rand.New(rand.NewSource(42))

			model := make(map[string]*ft.Snapshot)
			specs := make(map[string]Spec)
			acked := snapshotModel(model)

			spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
			nTarget, nHost := TargetHostSizesSpec(spec)
			failed := false
		drive:
			for op := 0; op < 60 && !failed; op++ {
				id := fmt.Sprintf("i%d", op%3)
				if _, ok := model[id]; !ok {
					_, err := m.Create(id, spec)
					switch {
					case errors.Is(err, ErrUnavailable):
						failed = true
						break drive
					case err != nil:
						t.Fatal(err)
					}
					s, _ := ft.NewSnapshot(nTarget, nHost, spec.K)
					model[id] = s
					specs[id] = spec
					acked = snapshotModel(model)
					continue
				}
				n := 1 + rng.Intn(3)
				events := make([]Event, n)
				batch := make([]ft.Change, n)
				for i := range events {
					node := rng.Intn(nHost)
					repair := rng.Intn(2) == 0
					kind := EventFault
					if repair {
						kind = EventRepair
					}
					events[i] = Event{Kind: kind, Node: node}
					batch[i] = ft.Change{Node: node, Repair: repair}
				}
				wantNext, wantErr := model[id].Apply(batch)
				before := mustGet(t, m, id).Snapshot()
				_, err := m.EventBatch(id, events)
				switch {
				case errors.Is(err, ErrUnavailable):
					// The crash point. The snapshot must NOT have advanced:
					// journal-then-publish means an unjournaled transition is
					// never visible.
					after := mustGet(t, m, id).Snapshot()
					if after.Epoch() != before.Epoch() {
						t.Fatalf("journal failed but epoch advanced %d -> %d", before.Epoch(), after.Epoch())
					}
					failed = true
				case wantErr != nil:
					if err == nil {
						t.Fatalf("oracle rejected but manager accepted")
					}
				case err != nil:
					t.Fatalf("oracle accepted but manager said %v", err)
				default:
					model[id] = wantNext
					acked = snapshotModel(model)
				}
			}
			// Small budgets must hit the crash point within the run; large
			// ones may finish clean (rejected ops append nothing), which
			// still checks full recovery below.
			if budget <= 200 && !failed {
				t.Fatalf("writer budget %d never failed in 60 ops", budget)
			}

			// A poisoned journal must keep refusing transitions rather
			// than silently diverging from the log.
			if failed {
				if _, err := m.EventBatch("i0", []Event{{Kind: EventFault, Node: 0}}); !errors.Is(err, ErrUnavailable) {
					if _, ok := m.Get("i0"); ok {
						t.Fatalf("append after poison = %v, want ErrUnavailable", err)
					}
				}
			}

			// Recover from whatever reached the "disk": exactly the acked
			// prefix, with any partial record dropped as a torn tail.
			m2 := NewManager(Options{})
			st, err := m2.Recover(bytes.NewReader(fw.buf.Bytes()))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if failed && int64(fw.buf.Len()) > st.Offset && !st.Torn {
				t.Errorf("crash left %d bytes but recovery saw no torn tail (offset %d)", fw.buf.Len(), st.Offset)
			}
			checkRecovered(t, m2, acked, specs)
		})
	}
}

// TestDeleteTombstonesInFlightWriter pins the fix for the
// delete/recreate journal hazard: a writer still holding the old
// *Instance after Manager.Delete must be rejected, not journal a
// transition record into the reused id's history.
func TestDeleteTombstonesInFlightWriter(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, journal.Options{})
	m := NewManager(Options{Journal: w})
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	if _, err := m.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	held := mustGet(t, m, "a") // the racing writer's stale handle
	if ok, err := m.Delete("a"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := held.ApplyBatch([]Event{{Kind: EventFault, Node: 1}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale writer got %v, want ErrNotFound", err)
	}
	// Recreate the id; the new incarnation journals from epoch 1.
	if _, err := m.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EventBatch("a", []Event{{Kind: EventFault, Node: 2}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	m2 := NewManager(Options{})
	st, err := m2.Recover(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("recover over delete+recreate: %v", err)
	}
	if st.Orphaned != 0 {
		t.Errorf("orphaned %d, want 0 (tombstone prevents stale records)", st.Orphaned)
	}
	if s := mustGet(t, m2, "a").Snapshot(); s.Epoch() != 1 || s.NumFaults() != 1 {
		t.Errorf("recreated instance recovered to epoch %d faults %v", s.Epoch(), s.Faults())
	}
}

func mustGet(t *testing.T, m *Manager, id string) *Instance {
	t.Helper()
	in, ok := m.Get(id)
	if !ok {
		t.Fatalf("instance %s missing", id)
	}
	return in
}

// TestRecoverRejectsCorruptSemantics pins that recovery fails loudly —
// rather than accepting impossible state — on logs that frame cleanly
// but encode epoch gaps, unknown instances, or over-budget fault sets.
func TestRecoverRejectsCorruptSemantics(t *testing.T) {
	spec := journal.Spec{Kind: "debruijn", M: 2, H: 4, K: 2}
	cases := map[string][]journal.Record{
		"epoch gap": {
			{Op: journal.OpCreate, ID: "a", Spec: spec},
			{Op: journal.OpTransition, ID: "a", Epoch: 2, Applied: 1, Faults: []int{1}},
		},
		"epoch replay": {
			{Op: journal.OpCreate, ID: "a", Spec: spec},
			{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 1, Faults: []int{1}},
			{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 1, Faults: []int{2}},
		},
		"unknown instance": {
			{Op: journal.OpTransition, ID: "ghost", Epoch: 1, Applied: 1, Faults: []int{1}},
		},
		"over budget": {
			{Op: journal.OpCreate, ID: "a", Spec: spec},
			{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 3, Faults: []int{1, 2, 3}},
		},
		"fault out of range": {
			{Op: journal.OpCreate, ID: "a", Spec: spec},
			{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 1, Faults: []int{999}},
		},
		"duplicate create": {
			{Op: journal.OpCreate, ID: "a", Spec: spec},
			{Op: journal.OpCreate, ID: "a", Spec: spec},
		},
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w := journal.NewWriter(&buf, journal.Options{})
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			m := NewManager(Options{})
			if _, err := m.Recover(bytes.NewReader(buf.Bytes())); err == nil {
				t.Fatalf("recovery accepted a %s log", name)
			}
		})
	}

	// The one tolerated out-of-order shape: a transition that trails its
	// instance's delete (in-flight writer vs delete race) is skipped,
	// not fatal.
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, journal.Options{})
	for _, rec := range []journal.Record{
		{Op: journal.OpCreate, ID: "a", Spec: spec},
		{Op: journal.OpTransition, ID: "a", Epoch: 1, Applied: 1, Faults: []int{1}},
		{Op: journal.OpDelete, ID: "a"},
		{Op: journal.OpTransition, ID: "a", Epoch: 2, Applied: 1, Faults: []int{1, 2}},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	m := NewManager(Options{})
	st, err := m.Recover(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("orphaned transition should be skipped, got %v", err)
	}
	if st.Orphaned != 1 || len(m.List()) != 0 {
		t.Fatalf("stats %+v, instances %v; want 1 orphaned, none live", st, m.List())
	}
}

// TestInstallPathsRejectCorruptRecords is the receiver-side half of
// "phi is bit-identical to a fresh ft.NewMapping": state from outside
// the process is installed through ft.Restore — ft.NewMapping plus the
// budget check, so what it accepts is correct by construction — and
// what it must refuse is refused on all four install paths with
// ErrCorruptRecord, the instance left on the snapshot it was serving.
func TestInstallPathsRejectCorruptRecords(t *testing.T) {
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2} // 16 targets, 18 hosts
	// Every path's setup leaves its instance at (epoch 1, faults {3}).
	cases := map[string]struct {
		epoch  uint64
		faults []int
	}{
		"fault out of range": {2, []int{3, 18}},
		"duplicate fault":    {2, []int{3, 3}},
		"over budget":        {2, []int{1, 2, 3}},
		"epoch gap":          {3, []int{3, 5}},
		"epoch reorder":      {1, []int{5}},
	}
	type install func(epoch uint64, faults []int) error
	paths := map[string]struct {
		skip  []string // cases the path accepts by design
		setup func(t *testing.T) (*Instance, install, error)
	}{
		"restore": {setup: func(t *testing.T) (*Instance, install, error) {
			in := newTestInstance(t, spec)
			return in, in.restore, in.restore(1, []int{3})
		}},
		// A checkpoint captures an instance mid-history: any epoch goes.
		"restoreCheckpoint": {skip: []string{"epoch gap", "epoch reorder"}, setup: func(t *testing.T) (*Instance, install, error) {
			in := newTestInstance(t, spec)
			return in, in.restoreCheckpoint, in.restoreCheckpoint(1, []int{3})
		}},
		"replicateLocked": {setup: func(t *testing.T) (*Instance, install, error) {
			m := NewManager(Options{})
			t.Cleanup(func() { m.Close() })
			replicate := func(rec journal.Record) error {
				return m.ReplicateEntry(commit.Entry{Seq: m.NextSeq(), Rec: rec})
			}
			if err := replicate(journal.Record{Op: journal.OpCreate, ID: "a", Spec: journalSpec(spec)}); err != nil {
				t.Fatal(err)
			}
			transition := func(epoch uint64, faults []int) error {
				return replicate(journal.Record{Op: journal.OpTransition, ID: "a", Epoch: epoch, Applied: 1, Faults: faults})
			}
			return mustGet(t, m, "a"), transition, transition(1, []int{3})
		}},
		// The migrate install: a staged checkpoint, then the fenced
		// suffix. A suffix record at or below the staged epoch overlaps
		// the checkpoint and is skipped, not refused.
		"migrate": {skip: []string{"epoch reorder"}, setup: func(t *testing.T) (*Instance, install, error) {
			p := newShardPair(t)
			p.installTopology(t)
			id := idOwnedBy(t, "b")
			frame := func(op journal.Op, epoch uint64, faults []int) sharding.Migration {
				return sharding.Migration{ID: id, BaseSeq: 7, Records: []journal.Record{
					{Op: op, ID: id, Spec: journalSpec(spec), Epoch: epoch, Applied: 1, Faults: faults}}}
			}
			// A forged checkpoint never registers at all.
			if err := p.b.StageMigration(frame(journal.OpCheckpoint, 1, []int{3, 3})); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("stage of a forged checkpoint: err %v, want ErrCorruptRecord", err)
			}
			if _, ok := p.b.Get(id); ok {
				t.Fatal("a forged checkpoint registered the instance")
			}
			err := p.b.StageMigration(frame(journal.OpCheckpoint, 1, []int{3}))
			return mustGet(t, p.b, id), func(epoch uint64, faults []int) error {
				_, err := p.b.CommitMigration(frame(journal.OpTransition, epoch, faults))
				return err
			}, err
		}},
	}
	for pathName, p := range paths {
		t.Run(pathName, func(t *testing.T) {
			in, install, err := p.setup(t)
			if err != nil {
				t.Fatal(err)
			}
			before := in.Snapshot()
			for name, c := range cases {
				if slices.Contains(p.skip, name) {
					continue
				}
				if err := install(c.epoch, slices.Clone(c.faults)); !errors.Is(err, ErrCorruptRecord) {
					t.Errorf("%s: err %v, want ErrCorruptRecord", name, err)
				}
				if in.Snapshot() != before {
					t.Fatalf("%s: instance moved to epoch %d faults %v", name, in.Snapshot().Epoch(), in.Snapshot().Faults())
				}
			}
			// The path still works: the true successor, unsorted as a
			// foreign sender might ship it, installs as a fresh NewMapping.
			if err := install(2, []int{9, 3}); err != nil {
				t.Fatalf("valid successor after the refusals: %v", err)
			}
			if got := in.Snapshot(); got.Epoch() != 2 || !slices.Equal(got.Mapping().Faults, []int{3, 9}) {
				t.Fatalf("after valid install: epoch %d faults %v", got.Epoch(), got.Mapping().Faults)
			}
		})
	}
}
