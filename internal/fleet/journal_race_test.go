package fleet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ftnet/internal/journal"
)

// TestFleetJournalConcurrentWriters storms journaled instances from N
// goroutines while a reader tails the growing file — the shape `go
// test -race` exists for. The on-disk invariant under concurrency: per
// instance, the epoch sequence in file order is exactly 1, 2, 3, ...
// — gap-free and monotone — because each instance's append happens
// under its writer mutex before the snapshot pointer is published.
func TestFleetJournalConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Journal: w})

	const nInstances, writers, perWriter = 3, 6, 60
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	ids := make([]string, nInstances)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%d", i)
		if _, err := m.Create(ids[i], spec); err != nil {
			t.Fatal(err)
		}
	}
	_, nHost := spec.Sizes()

	// The tail: re-scan from the last clean offset whenever the tear
	// (a record the interval flush has only half-written) or EOF moves
	// out from under us, verifying the epoch chain as records land.
	done := make(chan struct{})
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- tailAndVerify(path, ids, done)
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWriter; i++ {
				id := ids[rng.Intn(len(ids))]
				n := 1 + rng.Intn(3)
				events := make([]Event, n)
				for j := range events {
					kind := EventFault
					if rng.Intn(2) == 0 {
						kind = EventRepair
					}
					events[j] = Event{Kind: kind, Node: rng.Intn(nHost)}
				}
				// Rejections (budget, conflicts) are normal under this
				// traffic; only journal unavailability is a failure.
				if _, err := m.EventBatch(id, events); errors.Is(err, ErrUnavailable) {
					t.Errorf("journal unavailable: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	close(done)
	if err := <-tailErr; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Cross-check the end state: the file's last epoch per instance is
	// the live instance's epoch, and a fresh recovery agrees.
	lastEpochs, err := fileEpochs(path, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := mustGet(t, m, id).Snapshot().Epoch(); got != lastEpochs[id] {
			t.Errorf("%s: live epoch %d, journal says %d", id, got, lastEpochs[id])
		}
	}
	m2 := NewManager(Options{})
	if _, err := m2.RecoverFile(path); err != nil {
		t.Fatal(err)
	}
	checkFleet(t, m2, stateOf(t, m))
}

// tailAndVerify follows the journal file until done is closed AND a
// final clean pass reaches EOF, asserting every instance's epoch chain
// is gap-free and monotone in file order.
func tailAndVerify(path string, ids []string, done <-chan struct{}) error {
	want := make(map[string]uint64, len(ids))
	for _, id := range ids {
		want[id] = 1
	}
	var off int64
	finalPass := false
	for {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		jr := journal.NewReader(f)
		var scanErr error
		for {
			rec, err := jr.Next()
			if err != nil {
				scanErr = err
				break
			}
			if rec.Op != journal.OpTransition {
				continue
			}
			if rec.Epoch != want[rec.ID] {
				f.Close()
				return fmt.Errorf("tail: %s epoch %d at offset %d, want %d (gap or reorder)",
					rec.ID, rec.Epoch, off+jr.Offset(), want[rec.ID])
			}
			want[rec.ID] = rec.Epoch + 1
		}
		off += jr.Offset()
		f.Close()
		if finalPass {
			// This scan started after the writers finished and synced,
			// so the log must end cleanly — a tear here is a real torn
			// write, not a flush raced mid-record.
			if scanErr == io.EOF {
				return nil
			}
			if errors.Is(scanErr, journal.ErrTorn) {
				return fmt.Errorf("tail: torn record persists after final sync: %v", scanErr)
			}
			return scanErr
		}
		if scanErr != io.EOF && !errors.Is(scanErr, journal.ErrTorn) {
			return scanErr
		}
		select {
		case <-done:
			finalPass = true // one more authoritative scan from the clean offset
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// fileEpochs returns the last journaled epoch per instance.
func fileEpochs(path string, ids []string) (map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, _, err := journal.ReadAll(f)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(ids))
	for _, rec := range recs {
		if rec.Op == journal.OpTransition {
			out[rec.ID] = rec.Epoch
		}
	}
	return out, nil
}
