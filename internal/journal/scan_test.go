package journal

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// scanAll is ReadAll over the in-place scan: every view deep-copied
// before the next Scan overwrites it.
func scanAll(r io.Reader) (recs []Record, offset int64, err error) {
	jr := NewReader(r)
	var v View
	for {
		err := jr.Scan(&v)
		if err == io.EOF {
			return recs, jr.Offset(), nil
		}
		if err != nil {
			return recs, jr.Offset(), err
		}
		recs = append(recs, v.Record())
	}
}

// readBoth reads raw through Next and through Scan and requires the
// two to agree to the letter — same records, same valid-prefix offset,
// same error text — before returning what they read.
func readBoth(t *testing.T, raw []byte) ([]Record, int64, error) {
	t.Helper()
	recs, off, err := ReadAll(bytes.NewReader(raw))
	srecs, soff, serr := scanAll(bytes.NewReader(raw))
	if !reflect.DeepEqual(recs, srecs) || off != soff || fmt.Sprint(err) != fmt.Sprint(serr) {
		t.Fatalf("Next read %d records to offset %d (%v); Scan read %d to offset %d (%v)",
			len(recs), off, err, len(srecs), soff, serr)
	}
	return recs, off, err
}

// spillCheckpoint returns a checkpoint record of 100,000 faults: its
// frame is larger than the reader's buffer, so it is the one shape read
// through the spill buffer rather than in place.
func spillCheckpoint(t *testing.T) Record {
	t.Helper()
	big := Record{Op: OpCheckpoint, ID: "big", Spec: Spec{Kind: "debruijn", M: 2, H: 20, K: 100000}, Epoch: 9}
	for f := 0; f < 100000; f++ {
		big.Faults = append(big.Faults, 7*f)
	}
	if payload, err := AppendRecord(nil, big); err != nil || len(payload) <= readerBufferSize {
		t.Fatalf("a %d-byte record (%v) fits the %d-byte buffer", len(payload), err, readerBufferSize)
	}
	return big
}

// TestScanMatchesNextAcrossRefills scans a log several times the
// reader's buffer: frames of every small size, so they straddle each
// refill at a different cut, and one checkpoint whose body alone is
// larger than the buffer and takes the spill path mid-log. Each view,
// deep-copied, must equal the record Next returns at the same offset.
func TestScanMatchesNextAcrossRefills(t *testing.T) {
	var recs []Record
	big := spillCheckpoint(t)
	for i := 0; len(recs) < 20000; i++ {
		if i == 9000 {
			recs = append(recs, big)
		}
		var faults []int // nil when empty, as the decoder returns it
		for j := 0; j < i%23; j++ {
			faults = append(faults, i+300*j)
		}
		recs = append(recs,
			Record{Op: OpTransition, ID: fmt.Sprintf("instance-%d", i%97), Epoch: uint64(i + 1), Applied: 1 + i%4, Faults: faults})
		if i%50 == 0 {
			recs = append(recs, Record{Op: OpCreate, ID: fmt.Sprintf("c%d", i), Spec: Spec{Kind: "shuffle", H: 6, K: 2}},
				Record{Op: OpDelete, ID: fmt.Sprintf("c%d", i)},
				Record{Op: OpTermBump, ID: SeqBaseID, Term: uint64(i + 1)})
		}
	}
	raw := encodeLog(t, recs)
	if len(raw) < 4*readerBufferSize {
		t.Fatalf("log of %d bytes does not exercise a %d-byte buffer", len(raw), readerBufferSize)
	}

	next, scan := NewReader(bytes.NewReader(raw)), NewReader(bytes.NewReader(raw))
	var v View
	for i, want := range recs {
		rec, err := next.Next()
		if err != nil {
			t.Fatalf("record %d: Next: %v", i, err)
		}
		if err := scan.Scan(&v); err != nil {
			t.Fatalf("record %d: Scan: %v", i, err)
		}
		if got := v.Record(); !reflect.DeepEqual(got, rec) || !reflect.DeepEqual(rec, want) {
			t.Fatalf("record %d (%s %s, %d faults): Scan, Next and the record written differ", i, want.Op, want.ID, len(want.Faults))
		}
		if next.Offset() != scan.Offset() {
			t.Fatalf("record %d: Next at offset %d, Scan at %d", i, next.Offset(), scan.Offset())
		}
	}
	if err := scan.Scan(&v); err != io.EOF {
		t.Fatalf("after the last record: Scan = %v, want io.EOF", err)
	}
	if scan.Offset() != int64(len(raw)) {
		t.Fatalf("scanned to offset %d of %d", scan.Offset(), len(raw))
	}
}

// TestScanAllocFree pins the point of the view: scanning transition
// records allocates nothing per record — the reader and its buffer
// once, whatever the log's length.
func TestScanAllocFree(t *testing.T) {
	var recs []Record
	for i := 0; i < 10000; i++ {
		recs = append(recs, Record{Op: OpTransition, ID: fmt.Sprintf("i-%d", i%64), Epoch: uint64(i + 1), Applied: 2, Faults: []int{i, i + 5, i + 70, i + 900}})
	}
	raw := encodeLog(t, recs)
	allocs := testing.AllocsPerRun(5, func() {
		jr := NewReader(bytes.NewReader(raw))
		var v View
		n := 0
		for jr.Scan(&v) == nil {
			n++
		}
		if n != len(recs) {
			t.Fatalf("scanned %d of %d records", n, len(recs))
		}
	})
	if allocs > 8 {
		t.Fatalf("scanning %d transition records allocated %.0f objects, want a fixed handful", len(recs), allocs)
	}
}
