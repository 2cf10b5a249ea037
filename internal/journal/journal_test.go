package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// sampleRecords is a representative log: create, single-event and
// batch transitions (growing and shrinking fault sets), a delete, and
// an id reuse.
func sampleRecords() []Record {
	return []Record{
		{Op: OpCreate, ID: "prod", Spec: Spec{Kind: "debruijn", M: 2, H: 4, K: 3}},
		{Op: OpTransition, ID: "prod", Epoch: 1, Applied: 1, Faults: []int{3}},
		{Op: OpTransition, ID: "prod", Epoch: 2, Applied: 2, Faults: []int{3, 7}},
		{Op: OpCreate, ID: "se", Spec: Spec{Kind: "shuffle", H: 4, K: 2}},
		{Op: OpTransition, ID: "se", Epoch: 1, Applied: 1, Faults: []int{0}},
		{Op: OpTransition, ID: "prod", Epoch: 3, Applied: 1, Faults: []int{7}},
		{Op: OpDelete, ID: "se"},
		{Op: OpCreate, ID: "se", Spec: Spec{Kind: "shuffle", H: 4, K: 1}},
		{Op: OpTransition, ID: "prod", Epoch: 4, Applied: 3, Faults: []int{1, 7, 11}},
		{Op: OpTransition, ID: "prod", Epoch: 5, Applied: 3, Faults: nil},
	}
}

// compactionRecords is the head of a compacted log: the seq-base
// marker (carrying the leadership term in force) and full-state
// checkpoints (any epoch, including 0), plus a term bump as a promoted
// replica would fence its first write with.
func compactionRecords() []Record {
	return []Record{
		{Op: OpSeqBase, ID: SeqBaseID, Seq: 42},
		{Op: OpSeqBase, ID: SeqBaseID, Seq: 7, Term: 3},
		{Op: OpCheckpoint, ID: "prod", Spec: Spec{Kind: "debruijn", M: 2, H: 4, K: 3}, Epoch: 17, Faults: []int{3, 11}},
		{Op: OpCheckpoint, ID: "fresh", Spec: Spec{Kind: "shuffle", H: 4, K: 2}, Epoch: 0, Faults: nil},
		{Op: OpTermBump, ID: SeqBaseID, Term: 1},
		{Op: OpTermBump, ID: SeqBaseID, Term: 1 << 40},
	}
}

// encodeLog frames the records through a Writer into a buffer.
func encodeLog(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{Sync: SyncAlways}) // a buffer can't fsync; Always still flushes per record
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append(%+v): %v", rec, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range append(sampleRecords(), compactionRecords()...) {
		payload, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip %+v -> %+v", rec, got)
		}
		// Canonicality: re-encoding the decoded record reproduces the
		// bytes exactly.
		again, err := AppendRecord(nil, got)
		if err != nil || !bytes.Equal(again, payload) {
			t.Errorf("re-encode of %+v not canonical (err %v)", rec, err)
		}
	}
}

// TestParseOpInvertsString pins that every op's name parses back to the
// op, and that a name no op has is refused.
func TestParseOpInvertsString(t *testing.T) {
	for op := OpCreate; op <= OpMigrate; op++ {
		if got, err := ParseOp(op.String()); got != op || err != nil {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", op.String(), got, err, op)
		}
	}
	for _, name := range []string{"", "Create", Op(0).String(), (OpMigrate + 1).String()} {
		if op, err := ParseOp(name); err == nil {
			t.Errorf("ParseOp(%q) = %v, want an error", name, op)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	bad := []Record{
		{Op: OpCreate, ID: ""},
		{Op: Op(99), ID: "x"},
		{Op: OpTransition, ID: "x", Epoch: 0, Applied: 1},
		{Op: OpTransition, ID: "x", Epoch: 1, Applied: 0},
		{Op: OpTransition, ID: "x", Epoch: 1, Applied: 1, Faults: []int{4, 4}},
		{Op: OpTransition, ID: "x", Epoch: 1, Applied: 1, Faults: []int{5, 2}},
		{Op: OpTransition, ID: "x", Epoch: 1, Applied: 1, Faults: []int{-1}},
		{Op: OpCreate, ID: "x", Spec: Spec{M: -1}},
		{Op: OpSeqBase, ID: SeqBaseID, Seq: 0},
		{Op: OpTermBump, ID: SeqBaseID, Term: 0},
		{Op: OpCheckpoint, ID: "x", Spec: Spec{H: -1}},
		{Op: OpCheckpoint, ID: "x", Faults: []int{9, 2}},
	}
	for _, rec := range bad {
		if _, err := AppendRecord(nil, rec); err == nil {
			t.Errorf("AppendRecord(%+v) accepted invalid record", rec)
		}
	}
}

func TestWriterReaderLog(t *testing.T) {
	recs := sampleRecords()
	raw := encodeLog(t, recs)
	got, off, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len(raw)) {
		t.Errorf("offset %d, want %d", off, len(raw))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("read back %d records, want %d:\n got %+v\nwant %+v", len(got), len(recs), got, recs)
	}
}

func TestWriterFilePersistsAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	recs := sampleRecords()

	w, err := Create(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:5] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: with SyncAlways every acknowledged record is
	// already on disk, so the file must be complete WITHOUT Close.
	got, _, err := ReadAll(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:5]) {
		t.Fatalf("pre-close read = %+v, want %+v", got, recs[:5])
	}
	if st := w.Stats(); st.Records != 5 || st.Syncs == 0 || st.LastEpoch != 1 {
		t.Errorf("stats %+v: want 5 records, >0 syncs, last epoch 1", st)
	}
	w.Close()

	// Reopen in append mode; the log grows, it is not rewritten.
	w2, err := Create(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[5:] {
		if err := w2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err = ReadAll(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("after reopen read %d records, want %d", len(got), len(recs))
	}
	if err := w2.Append(recs[0]); err != ErrClosed {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestSyncPolicies pins what an acknowledged append means under each
// policy that defers the fsync: once Append returns the record has left
// the process — it is readable from the file without Close, and without
// waiting for an interval that is an hour away.
func TestSyncPolicies(t *testing.T) {
	rec := Record{Op: OpDelete, ID: "x"}

	for name, opts := range map[string]Options{
		"never":    {Sync: SyncNever},
		"interval": {Sync: SyncInterval, Interval: time.Hour},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			w, _ := Create(path, opts)
			defer w.Close()
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := ReadAll(mustOpen(t, path)); len(got) != 1 {
				t.Errorf("%d records readable after Append returned, want 1", len(got))
			}
			if st := w.Stats(); st.Syncs != 0 {
				t.Errorf("%d fsyncs before Close, want 0", st.Syncs)
			}
		})
	}
}

// TestAppendAsyncReusesItsFrame pins the append path's allocation
// budget — the frame is built in the writer's scratch buffer, so a
// steady-state AppendAsync allocates nothing — and that a record which
// does not encode leaves the stream untouched and the writer usable.
func TestAppendAsyncReusesItsFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{Sync: SyncNever})
	rec := Record{Op: OpTransition, ID: "prod", Epoch: 1, Applied: 2, Faults: []int{3, 9, 27}}
	if _, err := w.AppendAsync(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendAsync(Record{Op: OpTransition, ID: "prod", Epoch: 2, Applied: 1, Faults: []int{5, 2}}); err == nil {
		t.Fatal("AppendAsync accepted an invalid record")
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := w.AppendAsync(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendAsync: %.1f allocs/op, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 502 {
		t.Fatalf("read back %d records (err %v), want 502", len(got), err)
	}
	for _, r := range got {
		if !reflect.DeepEqual(r, rec) {
			t.Fatalf("read back %+v, want %+v", r, rec)
		}
	}
}

// TestGroupCommit storms one SyncAlways writer from many goroutines:
// every append must come back durable, and group commit must batch the
// fsyncs (strictly fewer syncs than records under contention is the
// whole point; equality would mean one fsync per record).
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{Op: OpTransition, ID: "x", Epoch: uint64(g*perWriter + i + 1), Applied: 1}
				if err := w.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records != writers*perWriter {
		t.Fatalf("records %d, want %d", st.Records, writers*perWriter)
	}
	got, _, err := ReadAll(mustOpen(t, path))
	if err != nil || len(got) != writers*perWriter {
		t.Fatalf("read back %d records (err %v), want %d", len(got), err, writers*perWriter)
	}
	t.Logf("group commit: %d records in %d fsyncs", st.Records, st.Syncs)
}
