package shard

import (
	"encoding/binary"
	"fmt"

	"ftnet/internal/journal"
)

// Migration is one instance's state in flight between daemons. Both
// halves of the two-phase handoff carry the same thing — one
// complete-state record, the O(k) OpCheckpoint that is the instance's
// entire state:
//
//   - stage: Record was taken without fencing writes.
//   - commit: Record was taken again under the write fence, so it is
//     the state the source acknowledged last.
//
// Token names the handoff attempt: the source mints one per attempt,
// and a commit lands only on the stage that carries the same one.
//
// Record must name the migrating instance: the codec rejects a frame
// that smuggles another instance's state.
type Migration struct {
	ID     string
	Token  uint64
	Record journal.Record
}

// migrationVersion is the stream format version byte; decoding rejects
// anything else. Version 1 carried two commit seqs and a list of
// records (a checkpoint to stage, a journal suffix to commit).
const migrationVersion = 2

// MaxMigrationSize bounds one encoded migration frame: an id, a token
// and one record, which names the id again.
const MaxMigrationSize = 2*journal.MaxRecordSize + 32

// AppendMigration appends the canonical encoding of m to dst. It is
// the exact inverse of DecodeMigration: decode(append(nil, m)) == m,
// and re-encoding any accepted payload reproduces it byte for byte.
func AppendMigration(dst []byte, m Migration) ([]byte, error) {
	if m.ID == "" {
		return nil, fmt.Errorf("shard: empty migration id")
	}
	if m.Record.ID != m.ID {
		return nil, fmt.Errorf("shard: record for %q in migration of %q", m.Record.ID, m.ID)
	}
	dst = append(dst, migrationVersion)
	dst = binary.AppendUvarint(dst, uint64(len(m.ID)))
	dst = append(dst, m.ID...)
	dst = binary.AppendUvarint(dst, m.Token)
	return journal.AppendRecord(dst, m.Record)
}

// DecodeMigration parses one canonical migration payload. It never
// panics on arbitrary input; any deviation — unknown version, truncated
// field, record naming another instance, trailing bytes — is an error.
func DecodeMigration(b []byte) (Migration, error) {
	if len(b) > MaxMigrationSize {
		return Migration{}, fmt.Errorf("shard: migration of %d bytes exceeds max %d", len(b), MaxMigrationSize)
	}
	if len(b) < 1 {
		return Migration{}, fmt.Errorf("shard: empty migration payload")
	}
	if b[0] != migrationVersion {
		return Migration{}, fmt.Errorf("shard: unknown migration version %d", b[0])
	}
	// journal.Cursor: the strict reader the journal and wire codecs use.
	c := journal.Cursor{B: b, Off: 1}
	var m Migration
	idLen, err := c.Int()
	if err != nil {
		return Migration{}, err
	}
	if idLen == 0 {
		return Migration{}, fmt.Errorf("shard: empty migration id")
	}
	if idLen > len(b)-c.Off {
		return Migration{}, fmt.Errorf("shard: id length %d exceeds %d remaining bytes", idLen, len(b)-c.Off)
	}
	m.ID = string(b[c.Off : c.Off+idLen])
	c.Off += idLen
	if m.Token, err = c.Uvarint(); err != nil {
		return Migration{}, err
	}
	// The record is the rest of the frame: its own decoder refuses a
	// truncated record and trailing bytes alike.
	if m.Record, err = journal.DecodeRecord(b[c.Off:]); err != nil {
		return Migration{}, fmt.Errorf("shard: record: %w", err)
	}
	if m.Record.ID != m.ID {
		return Migration{}, fmt.Errorf("shard: record for %q in migration of %q", m.Record.ID, m.ID)
	}
	return m, nil
}
