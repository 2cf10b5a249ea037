package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ftnet/internal/journal"
)

func recoverInto(t *testing.T, data []byte) *Manager {
	t.Helper()
	m := NewManager(Options{})
	if _, err := m.Recover(bytes.NewReader(data)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return m
}

// TestCompactRecoverEquivalence is the compaction property test:
// recovery from the compacted log (checkpoint + suffix) must be
// bit-identical — same instances, epochs, fault sets, phi slices — to
// recovery from the full pre-compaction history, at the compaction cut
// and again after a post-compaction suffix of random traffic, across
// random operation sequences.
func TestCompactRecoverEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := bootDaemon(t, DaemonConfig{}).mgr
			driveRandom(t, rng, m, 80)

			full := journalImage(t, m)
			mFull := recoverInto(t, full)

			st, err := m.Compact()
			if err != nil {
				t.Fatal(err)
			}
			compacted := journalImage(t, m)
			if len(compacted) >= len(full) && st.Instances > 0 && len(full) > 0 {
				// Not strictly guaranteed for tiny logs, but 80 random ops
				// produce far more transitions than instances.
				t.Errorf("compaction grew the log: %d -> %d bytes", len(full), len(compacted))
			}
			mCompact := recoverInto(t, compacted)
			checkFleet(t, mCompact, stateOf(t, mFull))
			checkFleet(t, mCompact, stateOf(t, m))

			// A suffix of more random traffic, then recover again: the
			// checkpoint+suffix replay must match the live fleet.
			for _, id := range m.list() {
				in := mustGet(t, m, id)
				nHost := in.Snapshot().NHost()
				for i := 0; i < 10; i++ {
					kind := EventFault
					if rng.Intn(2) == 0 {
						kind = EventRepair
					}
					m.EventBatch(id, []Event{{Kind: kind, Node: rng.Intn(nHost)}})
				}
			}
			after := journalImage(t, m)
			mAfter := recoverInto(t, after)
			checkFleet(t, mAfter, stateOf(t, m))

			// The compacted-at-cut replay is bounded: one seq-base marker
			// plus one checkpoint per instance.
			recs, _, err := journal.ReadAll(bytes.NewReader(compacted))
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + st.Instances; len(recs) != want {
				t.Errorf("compacted log holds %d records, want %d", len(recs), want)
			}
		})
	}
}

// TestCompactUnderConcurrentWrites compacts repeatedly while writers
// storm: no lost transition, no torn state — the final journal replays
// to exactly the live fleet, and a live subscriber sees a gap-free
// suffix.
func TestCompactUnderConcurrentWrites(t *testing.T) {
	m := bootDaemon(t, DaemonConfig{}).mgr
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 5, K: 4}
	_, nHost := spec.Sizes()
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%d", i)
		if _, err := m.Create(ids[i], spec); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				id := ids[rng.Intn(len(ids))]
				kind := EventFault
				if rng.Intn(2) == 0 {
					kind = EventRepair
				}
				m.EventBatch(id, []Event{{Kind: kind, Node: rng.Intn(nHost)}})
			}
		}(g)
	}
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Compact(); err != nil {
				t.Errorf("compact %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// A live subscriber across compactions: ordinary entries step by
	// exactly +1 (compactions emit nothing to a live tail); only a
	// checkpoint group — served if the subscriber was still catching up
	// when a compaction landed — may move the cursor, never backwards.
	sub, err := m.Subscribe(m.NextSeq(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	subDone := make(chan error, 1)
	go func() {
		var last uint64
		for e := range sub.C {
			if e.Rec.Op == journal.OpCheckpoint {
				if e.Seq < last {
					subDone <- fmt.Errorf("checkpoint seq %d ran backwards from %d", e.Seq, last)
					return
				}
				last = e.Seq
				continue
			}
			if last != 0 && e.Seq != last+1 {
				subDone <- fmt.Errorf("live subscriber saw seq %d after %d", e.Seq, last)
				return
			}
			last = e.Seq
		}
		subDone <- nil
	}()

	writers.Wait()
	close(stop)
	<-compactorDone
	sub.Close()
	if err := <-subDone; err != nil {
		t.Fatal(err)
	}

	mRec := recoverInto(t, journalImage(t, m))
	checkFleet(t, mRec, stateOf(t, m))
}

// TestRecoverCleansStaleCompactionTemp pins the crash-mid-compaction
// boot path: a half-written .compact temp file (the rename never
// happened) must be ignored and removed, and the old journal — which
// won — replays normally.
func TestRecoverCleansStaleCompactionTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Journal: w})
	if _, err := m.Create("a", lifecycleSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EventBatch("a", []Event{{EventFault, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash residue: a garbage temp checkpoint next to the journal.
	tmp := path + ".compact"
	if err := os.WriteFile(tmp, []byte{0xde, 0xad, 0xbe, 0xef}, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Options{})
	st, err := m2.RecoverFile(path)
	if err != nil {
		t.Fatalf("recovery with stale temp: %v", err)
	}
	if st.Records != 2 || st.Torn {
		t.Errorf("recovery stats %+v, want 2 clean records", st)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale %s not removed on boot", tmp)
	}
	checkFleet(t, m2, map[string]expectedState{"a": {lifecycleSpec, 1, []int{3}}})
}

// TestCompactKeepsJournalCountersMonotone: the journal counters are
// declared counters on /metrics and count the journal's life, so the
// writer a compaction reopens over the swapped file carries on from
// the old one's counts instead of starting at zero.
func TestCompactKeepsJournalCountersMonotone(t *testing.T) {
	m := bootDaemon(t, DaemonConfig{}).mgr
	if _, err := m.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	toggle := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			kind := EventFault
			if m.Stats().Journal.LastEpoch%2 == 1 {
				kind = EventRepair
			}
			if _, err := m.Event("a", Event{kind, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	toggle(5)
	before := m.Stats().Journal
	if before.Records != 6 || before.LastEpoch != 5 || before.Bytes == 0 {
		t.Fatalf("journal counters before the compaction = %+v, want 6 records up to epoch 5", before)
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	after := m.Stats().Journal
	if after.Records < before.Records || after.Bytes < before.Bytes ||
		after.Syncs < before.Syncs || after.LastEpoch != before.LastEpoch {
		t.Fatalf("journal counters went backwards across a compaction: %+v -> %+v", before, after)
	}
	toggle(2)
	if end := m.Stats().Journal; end.Records != after.Records+2 || end.LastEpoch != 7 || end.Bytes <= after.Bytes {
		t.Fatalf("journal counters after two more records = %+v, want %d records up to epoch 7", end, after.Records+2)
	}
}
