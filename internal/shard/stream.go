package shard

import (
	"encoding/binary"
	"fmt"

	"ftnet/internal/journal"
)

// Migration is one instance's state in flight between daemons. The
// same frame carries both halves of the two-phase handoff:
//
//   - stage: BaseSeq is the source's commit seq at capture and Records
//     holds exactly one OpCheckpoint — the O(k) record that is the
//     instance's entire state, taken without fencing writes.
//   - commit: FenceSeq is the seq the source fenced writes at and
//     Records holds the journal suffix for this instance in
//     (BaseSeq, FenceSeq] — every transition the staged checkpoint
//     missed, in commit order.
//
// Every record must name the migrating instance: the codec rejects a
// frame that smuggles another instance's state.
type Migration struct {
	ID       string
	BaseSeq  uint64
	FenceSeq uint64
	Records  []journal.Record
}

// migrationVersion is the stream format version byte; decoding rejects
// anything else.
const migrationVersion = 1

// MaxMigrationSize bounds one encoded migration frame. A checkpoint is
// O(k) and a fenced suffix is short by construction (the fence window
// is the pause the rebalance SLO tracks), so this is generous while
// keeping a corrupt count from asking the receiver for gigabytes.
const MaxMigrationSize = 64 << 20

// AppendMigration appends the canonical encoding of m to dst. It is
// the exact inverse of DecodeMigration: decode(append(nil, m)) == m,
// and re-encoding any accepted payload reproduces it byte for byte.
func AppendMigration(dst []byte, m Migration) ([]byte, error) {
	if m.ID == "" {
		return nil, fmt.Errorf("shard: empty migration id")
	}
	dst = append(dst, migrationVersion)
	dst = binary.AppendUvarint(dst, uint64(len(m.ID)))
	dst = append(dst, m.ID...)
	dst = binary.AppendUvarint(dst, m.BaseSeq)
	dst = binary.AppendUvarint(dst, m.FenceSeq)
	dst = binary.AppendUvarint(dst, uint64(len(m.Records)))
	var scratch []byte
	for _, rec := range m.Records {
		if rec.ID != m.ID {
			return nil, fmt.Errorf("shard: record for %q in migration of %q", rec.ID, m.ID)
		}
		payload, err := journal.AppendRecord(scratch[:0], rec)
		if err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
		scratch = payload
	}
	return dst, nil
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
	if m.BaseSeq, err = c.Uvarint(); err != nil {
		return Migration{}, err
	}
	if m.FenceSeq, err = c.Uvarint(); err != nil {
		return Migration{}, err
	}
	count, err := c.Int()
	if err != nil {
		return Migration{}, err
	}
	// Each record costs at least two bytes (length prefix + version), so
	// a count beyond the remaining payload is corrupt — checked before
	// allocating.
	if count > len(b)-c.Off {
		return Migration{}, fmt.Errorf("shard: record count %d exceeds %d remaining bytes", count, len(b)-c.Off)
	}
	if count > 0 {
		m.Records = make([]journal.Record, 0, count)
	}
	for i := 0; i < count; i++ {
		recLen, err := c.Int()
		if err != nil {
			return Migration{}, err
		}
		if recLen > journal.MaxRecordSize {
			return Migration{}, fmt.Errorf("shard: record of %d bytes exceeds max %d", recLen, journal.MaxRecordSize)
		}
		if recLen > len(b)-c.Off {
			return Migration{}, fmt.Errorf("shard: record length %d exceeds %d remaining bytes", recLen, len(b)-c.Off)
		}
		rec, err := journal.DecodeRecord(b[c.Off : c.Off+recLen])
		if err != nil {
			return Migration{}, fmt.Errorf("shard: record %d: %w", i, err)
		}
		if rec.ID != m.ID {
			return Migration{}, fmt.Errorf("shard: record %d for %q in migration of %q", i, rec.ID, m.ID)
		}
		c.Off += recLen
		m.Records = append(m.Records, rec)
	}
	if c.Off != len(b) {
		return Migration{}, fmt.Errorf("shard: %d trailing bytes after migration", len(b)-c.Off)
	}
	return m, nil
}
