package commit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/journal"
)

// countingFile is a journal file whose fsyncs are counted and can be
// made to fail.
type countingFile struct {
	*os.File
	syncs atomic.Int64
	fail  atomic.Pointer[error]
}

func (f *countingFile) Sync() error {
	if err := f.fail.Load(); err != nil {
		return *err
	}
	f.syncs.Add(1)
	return f.File.Sync()
}

// countingLog returns a log over a file-backed, fsync-always writer
// whose syncs the test can count and fail.
func countingLog(t *testing.T) (*Log, *countingFile) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "commit.wal"))
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingFile{File: f}
	l := NewLog(Config{Writer: journal.NewWriter(cf, journal.Options{Sync: journal.SyncAlways})})
	t.Cleanup(func() {
		l.Close()
		f.Close()
	})
	return l, cf
}

// liveSub subscribes from the log's current end and waits until the
// subscription is registered for live delivery.
func liveSub(t *testing.T, l *Log, buf int) *Sub {
	t.Helper()
	sub, err := l.Subscribe(l.NextSeq(), buf)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		live := sub.live
		l.mu.Unlock()
		if live {
			return sub
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never went live")
		}
	}
}

func pendingLen(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// TestRoundOneSyncOrderedFanout pins what a round is: N Begins and one
// Complete cost exactly one fsync, nothing is published or delivered
// before Complete, and afterwards every publish has run, in order, and
// subscribers hold the N entries in seq order.
func TestRoundOneSyncOrderedFanout(t *testing.T) {
	l, cf := countingLog(t)
	sub := liveSub(t, l, 64)
	defer sub.Close()

	const n = 8
	var published []uint64
	round := make([]Pending, 0, n)
	for i := 0; i < n; i++ {
		seq := uint64(i + 1)
		p, err := l.Begin(trec(fmt.Sprintf("i%d", i), 1, i), func() { published = append(published, seq) }, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != seq {
			t.Fatalf("Begin %d got seq %d", i, p.Seq)
		}
		round = append(round, p)
	}
	if got := cf.syncs.Load(); got != 0 {
		t.Fatalf("%d fsyncs before Complete", got)
	}
	if len(published) != 0 {
		t.Fatalf("published %v before Complete", published)
	}
	select {
	case e := <-sub.C:
		t.Fatalf("entry %d delivered before Complete", e.Seq)
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.Install(n, nil); err == nil {
		t.Fatal("Install accepted with a round in flight")
	}

	if err := l.Complete(round); err != nil {
		t.Fatal(err)
	}
	if got := cf.syncs.Load(); got != 1 {
		t.Fatalf("round of %d cost %d fsyncs, want 1", n, got)
	}
	if len(published) != n {
		t.Fatalf("published %v, want %d in order", published, n)
	}
	for i, seq := range published {
		if seq != uint64(i+1) {
			t.Fatalf("publish order %v", published)
		}
	}
	for i, e := range collect(t, sub, n) {
		if e.Seq != uint64(i+1) || e.Rec.ID != fmt.Sprintf("i%d", i) {
			t.Fatalf("entry %d is seq %d id %q", i, e.Seq, e.Rec.ID)
		}
	}
	if got := pendingLen(l); got != 0 {
		t.Fatalf("%d entries still pending after Complete", got)
	}
}

// TestRoundSyncFailure pins the failure half: when the round's fsync
// fails, Complete returns the error, no publish ran, nothing reached a
// subscriber, nothing is left pending, and the log is poisoned like
// after any failed commit.
func TestRoundSyncFailure(t *testing.T) {
	l, cf := countingLog(t)
	mustCommit(t, l, trec("warm", 1))
	sub := liveSub(t, l, 16)
	defer sub.Close()

	injected := errors.New("injected fsync failure")
	cf.fail.Store(&injected)
	published := 0
	var round []Pending
	for i := 0; i < 4; i++ {
		p, err := l.Begin(trec(fmt.Sprintf("i%d", i), 1, i), func() { published++ }, 0)
		if err != nil {
			t.Fatal(err)
		}
		round = append(round, p)
	}
	if err := l.Complete(round); !errors.Is(err, injected) {
		t.Fatalf("Complete returned %v, want the injected failure", err)
	}
	if published != 0 {
		t.Fatalf("%d publishes ran in a failed round", published)
	}
	if got := pendingLen(l); got != 0 {
		t.Fatalf("%d entries left pending by a failed round", got)
	}
	if _, err := l.Commit(trec("after", 1), nil); !errors.Is(err, injected) {
		t.Fatalf("commit after a failed round returned %v, want the sticky failure", err)
	}
	select {
	case e, ok := <-sub.C:
		if ok {
			t.Fatalf("unacknowledged entry %d leaked to a subscriber", e.Seq)
		}
	case <-time.After(20 * time.Millisecond):
	}
}

// TestConcurrentRoundsGapFree interleaves rounds of several committers:
// sequence numbers stay gap-free in the subscriber's view, every round
// is delivered whole and in order, and the rounds share fsyncs — fewer
// than one per record.
func TestConcurrentRoundsGapFree(t *testing.T) {
	l, cf := countingLog(t)
	const (
		committers = 4
		rounds     = 60
	)
	total := 0
	for g := 0; g < committers; g++ {
		for i := 0; i < rounds; i++ {
			total += 1 + (g+i)%7
		}
	}
	sub := liveSub(t, l, total+1)
	defer sub.Close()

	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", g)
			epoch := uint64(0)
			for i := 0; i < rounds; i++ {
				var round []Pending
				for k := 0; k < 1+(g+i)%7; k++ {
					epoch++
					p, err := l.Begin(trec(id, epoch), nil, 0)
					if err != nil {
						t.Error(err)
						return
					}
					round = append(round, p)
				}
				if err := l.Complete(round); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	epochs := make(map[string]uint64)
	for i, e := range collect(t, sub, total) {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.Rec.Epoch != epochs[e.Rec.ID]+1 {
			t.Fatalf("committer %s: epoch %d after %d", e.Rec.ID, e.Rec.Epoch, epochs[e.Rec.ID])
		}
		epochs[e.Rec.ID] = e.Rec.Epoch
	}
	if syncs := cf.syncs.Load(); syncs > int64(committers*rounds) {
		t.Fatalf("%d fsyncs for %d rounds of %d records: rounds did not share their wait", syncs, committers*rounds, total)
	}
}

// TestTailTrimsInPlace drives a memory-only log through several trims
// of its catch-up tail and checks the tail from every seq it still
// holds: exactly the expected entries, none lost or repeated by the
// in-place copy-down.
func TestTailTrimsInPlace(t *testing.T) {
	const history = 32
	l := NewLog(Config{History: history})
	defer l.Close()
	const commits = 3 * history
	for i := 1; i <= commits; i++ {
		mustCommit(t, l, trec("a", uint64(i), i))
	}
	l.mu.Lock()
	oldest := l.histBaseLocked()
	held := len(l.hist)
	l.mu.Unlock()
	if held < history || held > history+history/2 {
		t.Fatalf("tail holds %d entries, want between %d and %d", held, history, history+history/2)
	}
	for from := oldest; from <= commits; from++ {
		sub, err := l.Subscribe(from, commits)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range collect(t, sub, commits-int(from)+1) {
			want := from + uint64(i)
			if e.Seq != want || e.Rec.Epoch != want || len(e.Rec.Faults) != 1 || e.Rec.Faults[0] != int(want) {
				t.Fatalf("subscribe from %d: entry %d is seq %d epoch %d faults %v, want %d",
					from, i, e.Seq, e.Rec.Epoch, e.Rec.Faults, want)
			}
		}
		sub.Close()
	}
}

// TestSteadyStateCommitAllocs pins the bookkeeping at zero allocations
// per commit once its buffers are warm: the pending queue is popped by
// copy-down and the tail trimmed in place, so neither reallocates.
func TestSteadyStateCommitAllocs(t *testing.T) {
	const history = 64
	l := NewLog(Config{History: history})
	defer l.Close()
	rec := trec("a", 1, 3, 5)
	for i := 0; i < 4*history; i++ { // through two trims: the tail is at its final capacity
		mustCommit(t, l, rec)
	}
	if allocs := testing.AllocsPerRun(4*history, func() {
		if _, err := l.Commit(rec, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Commit on a memory-only log: %.2f allocs/op, want 0", allocs)
	}
}
