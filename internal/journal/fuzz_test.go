package journal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzJournalDecode throws arbitrary bytes at the record decoder and
// the frame scanner. The invariants, in the information-checking
// spirit of making corruption detectable rather than silently
// accepted:
//
//  1. DecodeRecord never panics, whatever the input.
//  2. Anything DecodeRecord accepts re-encodes to the EXACT input
//     bytes (the canonical-encoding property: accepted language ==
//     encoder image), and decodes again to an equal record.
//  3. The in-place decode into a used view — stale fields, a fault
//     slice with capacity left over — accepts and rejects exactly what
//     DecodeRecord does and yields the same record: nothing of the
//     previous record leaks into the next.
//  4. The frame reader never panics and never surfaces a record from
//     a frame whose CRC does not verify.
//
// Seeds are real encoded records, so the fuzzer starts from the
// interesting part of the input space.
func FuzzJournalDecode(f *testing.F) {
	for _, rec := range []Record{
		{Op: OpCreate, ID: "prod", Spec: Spec{Kind: "debruijn", M: 2, H: 4, K: 3}},
		{Op: OpCreate, ID: "se", Spec: Spec{Kind: "shuffle", H: 10, K: 6}},
		{Op: OpDelete, ID: "prod"},
		{Op: OpTransition, ID: "prod", Epoch: 1, Applied: 1, Faults: []int{3}},
		{Op: OpTransition, ID: "i-0", Epoch: 42, Applied: 4, Faults: []int{0, 1, 2, 3}},
		{Op: OpTransition, ID: "big", Epoch: 1 << 40, Applied: 7, Faults: []int{5, 1000, 1 << 20}},
		{Op: OpTransition, ID: "empty", Epoch: 9, Applied: 2, Faults: nil},
		{Op: OpSeqBase, ID: SeqBaseID, Seq: 1},
		{Op: OpSeqBase, ID: SeqBaseID, Seq: 1 << 33, Term: 5},
		{Op: OpTermBump, ID: SeqBaseID, Term: 2},
		{Op: OpCheckpoint, ID: "prod", Spec: Spec{Kind: "debruijn", M: 2, H: 4, K: 3}, Epoch: 17, Faults: []int{1, 5}},
		{Op: OpCheckpoint, ID: "fresh", Spec: Spec{Kind: "shuffle", H: 6, K: 2}, Epoch: 0, Faults: nil},
	} {
		payload, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatalf("seed %+v: %v", rec, err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{recordVersion, byte(OpTransition), 1, 'x', 0x80, 0x00}) // non-minimal uvarint
	// The fast paths' edges as fault deltas, and the same vector with a
	// non-minimal 0x80 0x00 in its middle.
	empty, err := AppendRecord(nil, Record{Op: OpTransition, ID: "edge", Epoch: 3, Applied: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range withVector(empty, 127, 128, 16383, 16384, 1<<21) {
		f.Add(seed)
	}

	// What invariant 3 decodes over: every field set, faults to spare.
	stale, err := AppendRecord(nil, Record{Op: OpCheckpoint, ID: "stale", Spec: Spec{Kind: "debruijn", M: 2, H: 9, K: 8},
		Epoch: 77, Faults: []int{2, 3, 5, 7, 11, 13, 17, 19}})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		var v View
		if serr := v.decode(stale); serr != nil {
			t.Fatal(serr)
		}
		if verr := v.decode(b); (verr == nil) != (err == nil) {
			t.Fatalf("in-place decode says %v, DecodeRecord says %v", verr, err)
		} else if verr == nil {
			got := v.Record()
			enc, eerr := AppendRecord(nil, got)
			if !reflect.DeepEqual(got, rec) || eerr != nil || !bytes.Equal(enc, b) {
				t.Fatalf("in-place decode over a used view = %+v (re-encodes to %x, %v); DecodeRecord = %+v from %x", got, enc, eerr, rec, b)
			}
		}
		if err == nil {
			enc, err := AppendRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			if !bytes.Equal(enc, b) {
				t.Fatalf("encode(decode(b)) != b:\n b  = %x\nenc = %x\nrec = %+v", b, enc, rec)
			}
			again, err := DecodeRecord(enc)
			if err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("decode(encode(rec)) = %+v, %v; want %+v", again, err, rec)
			}
		}
		// The frame scanner over the same bytes: must terminate without
		// panicking, and every surfaced record must be canonical too.
		recs, _, _ := ReadAll(bytes.NewReader(b))
		for _, r := range recs {
			if _, err := AppendRecord(nil, r); err != nil {
				t.Fatalf("frame reader surfaced non-encodable record %+v: %v", r, err)
			}
		}
	})
}

// withVector takes a canonical payload that ends in an empty counted
// vector (its last byte the zero count) and returns it with vals in that
// vector's place, then again with a non-minimal 0x80 0x00 spliced into
// the vector's middle (and counted).
func withVector(empty []byte, vals ...uint64) [][]byte {
	head := empty[:len(empty)-1]
	enc := func(mid []byte) []byte {
		n := len(vals)
		if mid != nil {
			n++
		}
		b := binary.AppendUvarint(bytes.Clone(head), uint64(n))
		for i, v := range vals {
			if i == len(vals)/2 {
				b = append(b, mid...)
			}
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	return [][]byte{enc(nil), enc([]byte{0x80, 0x00})}
}
