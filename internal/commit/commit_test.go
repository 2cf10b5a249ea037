package commit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/journal"
	"ftnet/internal/obs"
)

func trec(id string, epoch uint64, faults ...int) journal.Record {
	return journal.Record{Op: journal.OpTransition, ID: id, Epoch: epoch, Applied: 1, Faults: faults}
}

func mustCommit(t *testing.T, l *Log, rec journal.Record) uint64 {
	t.Helper()
	seq, err := l.Commit(rec, nil)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return seq
}

// collect drains n entries from the subscription with a timeout.
func collect(t *testing.T, sub *Sub, n int) []Entry {
	t.Helper()
	out := make([]Entry, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d/%d entries: %v", len(out), n, sub.Err())
			}
			out = append(out, e)
		case <-timeout:
			t.Fatalf("timed out after %d/%d entries", len(out), n)
		}
	}
	return out
}

// fileLog builds a file-backed log in a temp dir.
func fileLog(t *testing.T, opts journal.Options) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "commit.wal")
	w, err := journal.Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(Config{Writer: w})
	t.Cleanup(func() { l.Close() })
	return l, path
}

// TestCommitOrderAndPublish pins the pipeline's ordering contract:
// sequence numbers are assigned 1, 2, 3, ..., publish runs before the
// entry reaches any subscriber, and a live subscriber sees every entry
// in order.
func TestCommitOrderAndPublish(t *testing.T) {
	l := NewLog(Config{})
	defer l.Close()
	sub, err := l.Subscribe(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var published sync.Map
	for i := 1; i <= 20; i++ {
		i := i
		seq, err := l.Commit(trec("a", uint64(i), i), func() { published.Store(uint64(i), true) })
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("commit %d got seq %d", i, seq)
		}
	}
	for i, e := range collect(t, sub, 20) {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if _, ok := published.Load(e.Rec.Epoch); !ok {
			t.Fatalf("entry %d fanned out before its publish callback ran", e.Seq)
		}
	}
}

// TestConcurrentCommittersGapFree storms the log from many goroutines
// (file-backed, group-committed) while a live subscriber checks the
// stream is exactly 1..N with no gap, duplicate, or reorder.
func TestConcurrentCommittersGapFree(t *testing.T) {
	l, _ := fileLog(t, journal.Options{Sync: journal.SyncAlways})
	sub, err := l.Subscribe(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Commit(trec(fmt.Sprintf("i%d", g), uint64(i+1), g), nil); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	entries := collect(t, sub, writers*per)
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d (gap or reorder)", i, e.Seq)
		}
	}
	if got := l.LastSeq(); got != writers*per {
		t.Fatalf("LastSeq = %d, want %d", got, writers*per)
	}
}

// TestSubscribeCatchUpFromFile commits enough to outgrow a tiny
// in-memory history, then subscribes from the beginning: the gap must
// be served from the journal file, gap-free, before the live handoff.
func TestSubscribeCatchUpFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(Config{Writer: w, History: 8})
	defer l.Close()
	const n = 100
	for i := 1; i <= n; i++ {
		mustCommit(t, l, trec("a", uint64(i), i))
	}
	sub, err := l.Subscribe(1, 16) // buffer smaller than the backlog: catch-up must stream
	if err != nil {
		t.Fatal(err)
	}
	entries := collect(t, sub, n)
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.Rec.Epoch != uint64(i+1) {
			t.Fatalf("entry %d carries epoch %d", i, e.Rec.Epoch)
		}
	}
	// And the subscription is now live: a fresh commit arrives.
	mustCommit(t, l, trec("a", n+1, 1))
	if e := collect(t, sub, 1)[0]; e.Seq != n+1 {
		t.Fatalf("live entry seq %d, want %d", e.Seq, n+1)
	}
}

// TestSubscribeResume is the torn-stream shape: read a prefix, close,
// resubscribe from the next seq, and the stream continues with no gap
// and no duplicate.
func TestSubscribeResume(t *testing.T) {
	l, _ := fileLog(t, journal.Options{Sync: journal.SyncInterval, Interval: time.Millisecond})
	for i := 1; i <= 30; i++ {
		mustCommit(t, l, trec("a", uint64(i)))
	}
	sub, err := l.Subscribe(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 12)
	sub.Close()
	next := got[len(got)-1].Seq + 1
	sub2, err := l.Subscribe(next, 64)
	if err != nil {
		t.Fatal(err)
	}
	rest := collect(t, sub2, 30-len(got))
	if rest[0].Seq != next {
		t.Fatalf("resume started at %d, want %d", rest[0].Seq, next)
	}
	if last := rest[len(rest)-1].Seq; last != 30 {
		t.Fatalf("resume ended at %d, want 30", last)
	}
}

// TestSlowSubscriberOverflow pins the bounded contract: a live
// subscriber that stops draining is closed with ErrSlowSubscriber
// instead of stalling commits or skipping entries.
func TestSlowSubscriberOverflow(t *testing.T) {
	l := NewLog(Config{})
	defer l.Close()
	sub, err := l.Subscribe(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the pump has gone live before flooding, so the
	// overflow hits the live path deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never went live")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 50; i++ {
		mustCommit(t, l, trec("a", uint64(i)))
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok := <-sub.C; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overflowed subscription never closed")
		}
	}
	if err := sub.Err(); !errors.Is(err, ErrSlowSubscriber) {
		t.Fatalf("Err() = %v, want ErrSlowSubscriber", err)
	}
	if l.Stats().Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", l.Stats().Overflows)
	}
}

// TestSubscribeFutureSeq rejects subscriptions past the log end.
func TestSubscribeFutureSeq(t *testing.T) {
	l := NewLog(Config{})
	defer l.Close()
	mustCommit(t, l, trec("a", 1))
	if _, err := l.Subscribe(3, 8); !errors.Is(err, ErrFutureSeq) {
		t.Fatalf("Subscribe(3) = %v, want ErrFutureSeq", err)
	}
	if sub, err := l.Subscribe(2, 8); err != nil { // next seq: a pure live tail
		t.Fatalf("Subscribe(next) = %v", err)
	} else {
		sub.Close()
	}
}

// TestInstallServesCheckpointAndSuffix compacts a file-backed log and
// checks both consumers of the checkpoint: a fresh subscriber gets
// checkpoint entries (all at the covered seq) then the suffix, and the
// on-disk file now replays as [seq base, checkpoint, suffix].
func TestInstallServesCheckpointAndSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// History of 2: catch-up below the tail must come from the file,
	// which after Install holds only [seq base, checkpoint, suffix].
	l := NewLog(Config{Writer: w, History: 2})
	defer l.Close()
	for i := 1; i <= 10; i++ {
		mustCommit(t, l, trec("a", uint64(i), i))
	}
	cps := []journal.Record{{
		Op: journal.OpCheckpoint, ID: "a",
		Spec:   journal.Spec{Kind: "debruijn", M: 2, H: 4, K: 3},
		Epoch:  10,
		Faults: []int{10},
	}}
	if err := l.Install(10, cps); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 13; i++ {
		mustCommit(t, l, trec("a", uint64(i), i))
	}

	// The file: OpSeqBase(11), one checkpoint, three suffix records.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Op != journal.OpSeqBase || recs[0].Seq != 11 ||
		recs[1].Op != journal.OpCheckpoint || recs[2].Op != journal.OpTransition {
		t.Fatalf("compacted file shape: %+v", recs)
	}

	// A fresh subscriber from 1: the checkpoint entry at seq 10 (a
	// deliberate jump — the reset signal), then 11..13.
	sub, err := l.Subscribe(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	entries := collect(t, sub, 4)
	if entries[0].Seq != 10 || entries[0].Rec.Op != journal.OpCheckpoint {
		t.Fatalf("first entry %+v, want the seq-10 checkpoint", entries[0])
	}
	for i, e := range entries[1:] {
		if e.Seq != uint64(11+i) || e.Rec.Op != journal.OpTransition {
			t.Fatalf("suffix entry %d: %+v", i, e)
		}
	}

	// A resumer inside the suffix window skips the checkpoint entirely.
	sub2, err := l.Subscribe(12, 64)
	if err != nil {
		t.Fatal(err)
	}
	if e := collect(t, sub2, 1)[0]; e.Seq != 12 || e.Rec.Op != journal.OpTransition {
		t.Fatalf("resume inside suffix got %+v", e)
	}
}

// TestInstallCrashBeforeSwapOldFileWins injects a crash between
// writing the checkpoint temp file and the atomic rename: the old
// journal must be untouched and fully replayable, and the half-done
// temp file must not be mistaken for the log.
func TestInstallCrashBeforeSwapOldFileWins(t *testing.T) {
	l, path := fileLog(t, journal.Options{Sync: journal.SyncAlways})
	for i := 1; i <= 6; i++ {
		mustCommit(t, l, trec("a", uint64(i), i))
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("SIGKILL mid-compaction")
	l.testHookBeforeSwap = func() error { return crash }
	if err := l.Install(6, []journal.Record{{
		Op: journal.OpCheckpoint, ID: "a",
		Spec: journal.Spec{Kind: "debruijn", M: 2, H: 4, K: 3}, Epoch: 6, Faults: []int{6},
	}}); !errors.Is(err, crash) {
		t.Fatalf("Install = %v, want injected crash", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("old journal modified by crashed compaction (%d -> %d bytes)", len(before), len(after))
	}
	recs, _, err := journal.ReadAll(newReadFile(t, path))
	if err != nil || len(recs) != 6 {
		t.Fatalf("old journal replays %d records (%v), want 6", len(recs), err)
	}
	// The log keeps committing on the old file after the failed swap.
	l.testHookBeforeSwap = nil
	if seq := mustCommit(t, l, trec("a", 7, 7)); seq != 7 {
		t.Fatalf("post-crash commit seq %d, want 7", seq)
	}
}

func newReadFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestMemoryOnlyResetJump pins the documented memory-only limitation:
// when the history window has moved past fromSeq and there is no file
// or checkpoint to serve it, the stream starts at the oldest available
// seq — an explicit jump, never a silent gap in between delivered
// entries.
func TestMemoryOnlyResetJump(t *testing.T) {
	l := NewLog(Config{History: 8})
	defer l.Close()
	const n = 64
	for i := 1; i <= n; i++ {
		mustCommit(t, l, trec("a", uint64(i)))
	}
	sub, err := l.Subscribe(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(t, sub, 1)[0]
	if first.Seq == 1 {
		t.Fatalf("history of 8 cannot still hold seq 1")
	}
	// After the jump the stream is strictly +1 again.
	rest := collect(t, sub, int(uint64(n)-first.Seq))
	for i, e := range rest {
		if e.Seq != first.Seq+uint64(i+1) {
			t.Fatalf("entry after jump: seq %d, want %d", e.Seq, first.Seq+uint64(i+1))
		}
	}
}

// TestCommitFailurePoisonsWithoutGaps pins the failure contract: when
// the journal dies, the failing commit is not acknowledged, not fanned
// out, and later commits keep failing — subscribers never see a seq
// gap, just silence.
func TestCommitFailurePoisonsWithoutGaps(t *testing.T) {
	fw := &failAfter{n: 2}
	w := journal.NewWriter(fw, journal.Options{Sync: journal.SyncAlways, BufferSize: 1})
	l := NewLog(Config{Writer: w})
	defer l.Close()
	sub, err := l.Subscribe(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Uint64
	for i := 1; i <= 10; i++ {
		if seq, err := l.Commit(trec("a", uint64(i)), nil); err == nil {
			acked.Store(seq)
		}
	}
	if acked.Load() == 10 {
		t.Fatal("writer failure never surfaced")
	}
	// Everything acknowledged arrives; then the channel goes quiet (the
	// log is poisoned), with no gap in what was delivered.
	entries := collect(t, sub, int(acked.Load()))
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	select {
	case e, ok := <-sub.C:
		if ok {
			t.Fatalf("unacknowledged entry %d leaked to a subscriber", e.Seq)
		}
	case <-time.After(50 * time.Millisecond):
	}
}

// failAfter fails every write after the first n.
type failAfter struct {
	mu sync.Mutex
	n  int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n <= 0 {
		return 0, errors.New("injected write failure")
	}
	f.n--
	return len(p), nil
}

// TestStageHistogramsRecordPerCommit pins the observability contract:
// each successful commit records exactly one sample in each of the four
// stage histograms, and each entry carries the leader's commit
// timestamp.
func TestStageHistogramsRecordPerCommit(t *testing.T) {
	reg := obs.New()
	path := filepath.Join(t.TempDir(), "commit.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(Config{Writer: w, Obs: reg})
	defer l.Close()

	before := time.Now().UnixNano()
	const commits = 25
	published := 0
	for i := 0; i < commits; i++ {
		if _, err := l.Commit(trec(fmt.Sprintf("i%d", i), 1, i), func() { published++ }); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if published != commits {
		t.Fatalf("publish ran %d times, want %d", published, commits)
	}

	e := reg.Export()
	for _, name := range []string{
		"ftnet_commit_append_seconds",
		"ftnet_commit_fsync_wait_seconds",
		"ftnet_commit_publish_seconds",
		"ftnet_commit_fanout_seconds",
	} {
		h, ok := e.Find(name, "")
		if !ok {
			t.Fatalf("histogram %s not exported", name)
		}
		if h.Count != commits {
			t.Errorf("%s recorded %d samples, want %d", name, h.Count, commits)
		}
	}

	// Every committed entry is stamped with a plausible wall-clock.
	sub, err := l.Subscribe(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, en := range collect(t, sub, commits) {
		if en.At < before || en.At > time.Now().UnixNano() {
			t.Fatalf("entry %d has implausible commit timestamp %d", en.Seq, en.At)
		}
	}
}

// TestCatchUpEntriesHaveNoTimestamp pins the At==0 contract for entries
// replayed from the journal file: age is unknown, not zero.
func TestCatchUpEntriesHaveNoTimestamp(t *testing.T) {
	l, path := fileLog(t, journal.Options{Sync: journal.SyncAlways})
	for i := 0; i < 3; i++ {
		mustCommit(t, l, trec(fmt.Sprintf("i%d", i), 1, i))
	}
	got := 0
	if _, err := scanFile(path, 1, 3, func(e Entry) bool {
		if e.At != 0 {
			t.Errorf("catch-up entry %d carries At=%d, want 0", e.Seq, e.At)
		}
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("scanned %d entries, want 3", got)
	}
}

// TestCatchUpAllocatesForWhatItEmits pins the cost of resuming near the
// tail: the scan re-reads the file from byte 0, but the 49,990 records
// below the resume point are verified and counted in place, and only
// the 10 entries emitted are materialized.
func TestCatchUpAllocatesForWhatItEmits(t *testing.T) {
	const records, emitted = 50000, 10
	path := filepath.Join(t.TempDir(), "commit.wal")
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= records; i++ {
		if err := w.Append(trec(fmt.Sprintf("i%d", i%16), uint64(i), i, i+3, i+9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	allocs := testing.AllocsPerRun(3, func() {
		got = got[:0]
		reached, err := scanFile(path, records-emitted+1, records, func(e Entry) bool {
			got = append(got, e)
			return true
		})
		if err != nil || reached != records+1 {
			t.Fatalf("scan reached seq %d, err %v; want %d", reached, err, records+1)
		}
	})
	if len(got) != emitted {
		t.Fatalf("emitted %d entries, want %d", len(got), emitted)
	}
	for i, e := range got {
		seq := uint64(records - emitted + 1 + i)
		want := trec(fmt.Sprintf("i%d", seq%16), seq, int(seq), int(seq)+3, int(seq)+9)
		if e.Seq != seq || !reflect.DeepEqual(e.Rec, want) {
			t.Fatalf("entry %d: seq %d rec %+v, want seq %d rec %+v", i, e.Seq, e.Rec, seq, want)
		}
	}
	// Opening the file and the reader's buffer are a fixed dozen or so;
	// an entry is its id and its fault set. The old scan cost 3 objects
	// a record: 150,000 here.
	if allocs > 16+3*emitted {
		t.Fatalf("resuming %d entries from the tail of a %d-record file allocated %.0f objects", emitted, records, allocs)
	}
}
