package journal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// frameOffsets returns the byte offset of each frame boundary in a
// well-formed log (0, end of record 0, ..., len(raw)).
func frameOffsets(t *testing.T, raw []byte) []int64 {
	t.Helper()
	offs := []int64{0}
	jr := NewReader(bytes.NewReader(raw))
	for {
		if _, err := jr.Next(); err != nil {
			if err == io.EOF {
				return offs
			}
			t.Fatalf("well-formed log failed to parse: %v", err)
		}
		offs = append(offs, jr.Offset())
	}
}

// TestTornTailTruncation cuts the log at EVERY byte offset of the
// final record: recovery must surface all complete records, report the
// torn tail (or a clean EOF exactly at the boundary), never panic, and
// never fabricate a record.
func TestTornTailTruncation(t *testing.T) {
	recs := sampleRecords()
	raw := encodeLog(t, recs)
	offs := frameOffsets(t, raw)
	lastStart, end := offs[len(offs)-2], offs[len(offs)-1]
	if end != int64(len(raw)) {
		t.Fatalf("offsets end at %d, raw is %d bytes", end, len(raw))
	}
	for cut := lastStart; cut <= end; cut++ {
		got, off, err := readBoth(t, raw[:cut])
		wantRecs := recs[:len(recs)-1]
		wantOff := lastStart
		switch cut {
		case end: // exact frame boundary: clean end, all records
			wantRecs, wantOff = recs, end
			fallthrough
		case lastStart: // zero bytes of the final record: also clean
			if err != nil {
				t.Fatalf("cut %d: clean boundary reported %v", cut, err)
			}
		default:
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("cut %d: err = %v, want ErrTorn", cut, err)
			}
		}
		if off != wantOff {
			t.Fatalf("cut %d: valid prefix %d bytes, want %d", cut, off, wantOff)
		}
		if !reflect.DeepEqual(got, wantRecs) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), len(wantRecs))
		}
	}
}

// TestTornTailBitFlips flips every single bit of the final record's
// frame (length, CRC, and body). The CRC (or the canonical decoder)
// must reject the record: recovery keeps the intact prefix and never
// accepts a record that differs from what was written.
func TestTornTailBitFlips(t *testing.T) {
	recs := sampleRecords()
	raw := encodeLog(t, recs)
	offs := frameOffsets(t, raw)
	lastStart := offs[len(offs)-2]
	intact := recs[:len(recs)-1]

	for pos := lastStart; pos < int64(len(raw)); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(raw)
			mut[pos] ^= 1 << bit
			got, off, err := readBoth(t, mut)
			if err == nil || !errors.Is(err, ErrTorn) {
				t.Fatalf("flip bit %d at byte %d: err = %v, want ErrTorn", bit, pos, err)
			}
			if off != lastStart {
				t.Fatalf("flip bit %d at byte %d: prefix %d bytes, want %d", bit, pos, off, lastStart)
			}
			if !reflect.DeepEqual(got, intact) {
				t.Fatalf("flip bit %d at byte %d: corrupted prefix", bit, pos)
			}
		}
	}
}

// TestMidLogBitFlips flips bits inside an interior record: everything
// before it must survive, the flipped record must never be accepted in
// altered form, and (because an append-only log has no resync point)
// scanning stops at the tear — the recovered sequence is always a
// strict prefix of the true one.
func TestMidLogBitFlips(t *testing.T) {
	recs := sampleRecords()
	raw := encodeLog(t, recs)
	offs := frameOffsets(t, raw)
	victim := 3 // an interior record
	for pos := offs[victim]; pos < offs[victim+1]; pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(raw)
			mut[pos] ^= 1 << bit
			got, _, err := readBoth(t, mut)
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("flip bit %d at byte %d: err = %v, want ErrTorn", bit, pos, err)
			}
			if len(got) > victim {
				t.Fatalf("flip bit %d at byte %d: %d records surfaced past the corrupt one", bit, pos, len(got))
			}
			if !reflect.DeepEqual(got, recs[:len(got)]) {
				t.Fatalf("flip bit %d at byte %d: recovered records are not a prefix of the originals", bit, pos)
			}
		}
	}
}

// TestTornGarbage feeds raw garbage and pathological frames: never a
// panic, never a record.
func TestTornGarbage(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0} // implausible 2 GiB length
	short := []byte{0x40, 0, 0, 0, 0, 0, 0, 0}         // plausible length, body missing
	zero := []byte{0, 0, 0, 0, 0, 0, 0, 0}             // zero-length record
	for _, b := range [][]byte{{1}, {1, 2, 3}, huge, short, zero, bytes.Repeat([]byte{0xAA}, 100)} {
		got, off, err := readBoth(t, b)
		if len(got) != 0 || off != 0 || !errors.Is(err, ErrTorn) {
			t.Errorf("garbage %x: got %d records, off %d, err %v", b[:min(8, len(b))], len(got), off, err)
		}
	}
	if got, off, err := readBoth(t, nil); len(got) != 0 || off != 0 || err != nil {
		t.Errorf("empty log: %d records, off %d, err %v", len(got), off, err)
	}
}

// TestTornSpilledRecord tears a final record too large for the reader's
// buffer: cut anywhere, it is dropped as a torn tail and the prefix
// before it stands.
func TestTornSpilledRecord(t *testing.T) {
	recs := sampleRecords()
	raw := encodeLog(t, append(recs, spillCheckpoint(t)))
	offs := frameOffsets(t, raw)
	lastStart, end := offs[len(offs)-2], int64(len(raw))
	for _, cut := range []int64{lastStart + 3, lastStart + frameHeaderSize, lastStart + frameHeaderSize + 1, (lastStart + end) / 2, end - 1} {
		got, off, err := readBoth(t, raw[:cut])
		if !errors.Is(err, ErrTorn) || off != lastStart || !reflect.DeepEqual(got, recs) {
			t.Fatalf("cut %d: %d records to offset %d, err %v; want %d records to %d and ErrTorn", cut, len(got), off, err, len(recs), lastStart)
		}
	}
	mut := bytes.Clone(raw)
	mut[end-2] ^= 0x10
	if got, off, err := readBoth(t, mut); !errors.Is(err, ErrTorn) || off != lastStart || len(got) != len(recs) {
		t.Fatalf("bit flip in the spilled body: %d records to offset %d, err %v", len(got), off, err)
	}
}
