package shard

import (
	"bytes"
	"reflect"
	"testing"

	"ftnet/internal/journal"
)

func sampleMigration() Migration {
	return Migration{
		ID:     "inst-7",
		Token:  0x9e3779b97f4a7c15,
		Record: journal.Record{Op: journal.OpCheckpoint, ID: "inst-7", Spec: journal.Spec{Kind: "debruijn", M: 64, H: 60, K: 4}, Epoch: 11, Faults: []int{3, 41, 52}},
	}
}

func TestMigrationRoundTrip(t *testing.T) {
	for name, m := range map[string]Migration{
		"full":         sampleMigration(),
		"neverWritten": {ID: "i", Token: 1, Record: journal.Record{Op: journal.OpCheckpoint, ID: "i", Spec: journal.Spec{Kind: "hypercube", M: 8, H: 8, K: 0}}},
		"noToken":      {ID: "zz", Record: journal.Record{Op: journal.OpDelete, ID: "zz"}},
	} {
		enc, err := AppendMigration(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := DecodeMigration(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(dec, m) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, dec, m)
		}
		// Canonical: re-encoding the decoded value reproduces the bytes.
		re, err := AppendMigration(nil, dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encode differs from original", name)
		}
	}
}

func TestMigrationRejectsForeignRecord(t *testing.T) {
	m := sampleMigration()
	m.Record.ID = "other-instance"
	if _, err := AppendMigration(nil, m); err == nil {
		t.Fatal("encode accepted a record naming another instance")
	}
	// A hand-spliced frame must be caught on decode too: encode a valid
	// frame for "other" and graft its id field onto our frame's body.
	good, err := AppendMigration(nil, Migration{
		ID:     "ab",
		Record: journal.Record{Op: journal.OpDelete, ID: "ab"},
	})
	if err != nil {
		t.Fatal(err)
	}
	spliced := append([]byte(nil), good...)
	// Flip the migration id (offset 2..4 after version + 1-byte length)
	// so the embedded record no longer matches.
	spliced[2], spliced[3] = 'x', 'y'
	if _, err := DecodeMigration(spliced); err == nil {
		t.Fatal("decode accepted a record naming another instance")
	}
}

// v1EmptyFrame is what the version 1 codec wrote for the id "i" with
// its two seqs at 1 and 2 and no records.
var v1EmptyFrame = []byte{1, 1, 'i', 1, 2, 0}

func TestMigrationDecodeRejectsCorruption(t *testing.T) {
	enc, err := AppendMigration(nil, sampleMigration())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail (truncation at any byte).
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeMigration(enc[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte truncation", n)
		}
	}
	// Trailing garbage must fail.
	if _, err := DecodeMigration(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("decode accepted trailing byte")
	}
	// Any other version byte must fail — the v1 frame (two seqs and a
	// record list) included: it is refused by version, never parsed.
	for _, v := range []byte{0, 1, 3} {
		bad := append([]byte(nil), enc...)
		bad[0] = v
		if _, err := DecodeMigration(bad); err == nil {
			t.Fatalf("decode accepted version %d", v)
		}
	}
	if _, err := DecodeMigration(v1EmptyFrame); err == nil {
		t.Fatal("decode accepted a v1 frame")
	}
}

// FuzzMigrationDecode pins the codec's two safety properties on
// arbitrary input: decoding never panics, and any payload the decoder
// accepts re-encodes to the identical bytes (the accepted language is
// exactly the canonical encodings — same discipline as
// FuzzJournalDecode and FuzzWireDecode).
func FuzzMigrationDecode(f *testing.F) {
	for _, m := range []Migration{
		sampleMigration(),
		{ID: "i", Token: 1, Record: journal.Record{Op: journal.OpCheckpoint, ID: "i", Spec: journal.Spec{Kind: "hypercube", M: 8, H: 8, K: 0}}},
		{ID: "zz", Record: journal.Record{Op: journal.OpCreate, ID: "zz", Spec: journal.Spec{Kind: "kautz", M: 3, H: 2, K: 1}}},
	} {
		enc, err := AppendMigration(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{migrationVersion})
	f.Add(v1EmptyFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMigration(data)
		if err != nil {
			return
		}
		re, err := AppendMigration(nil, m)
		if err != nil {
			t.Fatalf("accepted migration failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
