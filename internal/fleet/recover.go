package fleet

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"ftnet/internal/journal"
)

// RecoverStats summarizes one journal replay. Offset is the byte
// length of the valid record prefix — when Torn is set, everything
// past Offset was a torn or corrupt tail (the signature of a crash
// mid-append) and was dropped; RecoverFile truncates the file there so
// fresh appends continue from clean state. Orphaned counts transition
// records that trail their instance's delete record with no re-create
// in between. Current writers cannot produce such records (Delete
// tombstones the instance under its writer mutex before appending the
// delete record), so this is defense in depth for logs from older
// writers or external tooling; replay skips them instead of failing.
type RecoverStats struct {
	Records     int     `json:"records"`     // complete records replayed
	Created     int     `json:"created"`     // instances created
	Deleted     int     `json:"deleted"`     // instances deleted
	Transitions int     `json:"transitions"` // epoch transitions restored
	Checkpoints int     `json:"checkpoints"` // compaction checkpoints restored
	Migrated    int     `json:"migrated"`    // migration arrivals restored
	Orphaned    int     `json:"orphaned"`    // transitions for deleted instances, skipped
	LastEpoch   uint64  `json:"last_epoch"`  // highest epoch restored
	BaseSeq     uint64  `json:"base_seq"`    // commit seq of the file's first ordinary record
	NextSeq     uint64  `json:"next_seq"`    // commit seq the next transition will carry
	Term        uint64  `json:"term"`        // leadership term in force at the end of the log
	TermSeq     uint64  `json:"term_seq"`    // commit seq of the in-file bump that set it (0 = from seq base)
	TermBumps   int     `json:"term_bumps"`  // OpTermBump records replayed
	Torn        bool    `json:"torn"`        // a torn/corrupt tail was dropped
	TornReason  string  `json:"torn_reason,omitempty"`
	Offset      int64   `json:"offset"`  // end of the valid prefix, in bytes
	Seconds     float64 `json:"seconds"` // wall-clock recovery time
}

// Recover replays a journal into the manager, rebuilding every
// instance to its exact pre-crash epoch, fault set, and mapping. Each
// transition record is validated and its mapping computed by
// ft.NewMapping before its snapshot is published — a log that decodes
// but encodes an impossible state (epoch gap, budget overflow, fault
// out of range or duplicated) fails recovery rather than being
// accepted.
//
// A torn tail (ErrTorn from the reader) is not an error: it is the
// expected residue of a crash mid-append. Replay keeps every complete
// record before the tear, reports it in the stats, and the caller
// truncates (RecoverFile does so automatically).
//
// Recover never journals its own replayed operations; it is meant to
// run on boot, before traffic — and before SetJournal attaches the
// append writer to the recovered file.
func (m *Manager) Recover(r io.Reader) (RecoverStats, error) {
	start := time.Now()
	st := RecoverStats{BaseSeq: 1, NextSeq: 1}
	jr := journal.NewReader(r)
	deleted := make(map[string]bool)
	for {
		rec, err := jr.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, journal.ErrTorn) {
			st.Torn = true
			st.TornReason = err.Error()
			break
		}
		if err != nil {
			return st, fmt.Errorf("fleet: recover: %w", err)
		}
		st.Records++
		switch rec.Op {
		case journal.OpSeqBase:
			// Metadata, not a transition: a compacted file leads with the
			// commit seq of its first post-checkpoint record — and the
			// leadership term in force at the cut — so both survive the
			// checkpoint-and-truncate swap.
			st.BaseSeq = rec.Seq
			st.NextSeq = rec.Seq
			if rec.Term < st.Term {
				return st, fmt.Errorf("fleet: recover record %d: seq base term %d below term %d in force",
					st.Records, rec.Term, st.Term)
			}
			st.Term = rec.Term
			st.TermSeq = 0
		case journal.OpCheckpoint:
			// One instance's complete state at the compaction cut; does
			// not consume a commit seq (it summarizes the dropped prefix).
			spec := Spec{Kind: Kind(rec.Spec.Kind), M: rec.Spec.M, H: rec.Spec.H, K: rec.Spec.K}
			m.deleteRaw(rec.ID) // the checkpoint is authoritative
			in, err := m.createRaw(rec.ID, spec)
			if err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			if err := in.restoreCheckpoint(rec.Epoch, rec.Faults); err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			delete(deleted, rec.ID)
			st.Checkpoints++
			if rec.Epoch > st.LastEpoch {
				st.LastEpoch = rec.Epoch
			}
		case journal.OpMigrate:
			// An instance that arrived via checkpoint-streamed migration:
			// same complete-state shape as a checkpoint, but it consumes a
			// commit seq — it is an ordinary entry this daemon's followers
			// replicated, not a summary of a dropped prefix.
			spec := Spec{Kind: Kind(rec.Spec.Kind), M: rec.Spec.M, H: rec.Spec.H, K: rec.Spec.K}
			m.deleteRaw(rec.ID) // the arrival record is authoritative
			in, err := m.createRaw(rec.ID, spec)
			if err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			if err := in.restoreCheckpoint(rec.Epoch, rec.Faults); err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			delete(deleted, rec.ID)
			st.Migrated++
			st.NextSeq++
			if rec.Epoch > st.LastEpoch {
				st.LastEpoch = rec.Epoch
			}
		case journal.OpCreate:
			spec := Spec{Kind: Kind(rec.Spec.Kind), M: rec.Spec.M, H: rec.Spec.H, K: rec.Spec.K}
			if _, err := m.createRaw(rec.ID, spec); err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			delete(deleted, rec.ID) // ids may be reused after a delete
			st.Created++
			st.NextSeq++
		case journal.OpDelete:
			m.deleteRaw(rec.ID)
			deleted[rec.ID] = true
			st.Deleted++
			st.NextSeq++
		case journal.OpTermBump:
			// The leadership fence consumes a commit seq like any ordinary
			// record, and the chain must be strictly increasing — a log
			// where the term goes backwards is a deposed leader's suffix
			// that should have been discarded, so replay refuses it.
			if rec.Term <= st.Term {
				return st, fmt.Errorf("fleet: recover record %d: term bump to %d but term %d already in force",
					st.Records, rec.Term, st.Term)
			}
			st.Term = rec.Term
			st.TermSeq = st.NextSeq
			st.NextSeq++
			st.TermBumps++
		case journal.OpTransition:
			st.NextSeq++
			in, ok := m.Get(rec.ID)
			if !ok {
				if deleted[rec.ID] {
					st.Orphaned++
					continue
				}
				return st, fmt.Errorf("fleet: recover record %d: transition for unknown instance %q",
					st.Records, rec.ID)
			}
			if err := in.restore(rec.Epoch, rec.Faults); err != nil {
				return st, fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
			}
			st.Transitions++
			if rec.Epoch > st.LastEpoch {
				st.LastEpoch = rec.Epoch
			}
		default:
			return st, fmt.Errorf("fleet: recover record %d: unknown op %v", st.Records, rec.Op)
		}
	}
	st.Offset = jr.Offset()
	st.Seconds = time.Since(start).Seconds()
	// Seed the commit pipeline where the log left off, so watch and
	// replication sequence numbers — and the leadership term fence —
	// continue across the restart.
	m.pipe.log.SetPosition(st.BaseSeq, st.NextSeq-1)
	m.pipe.log.SetTerm(st.Term, st.TermSeq)
	m.recovered.Store(&st)
	return st, nil
}

// RecoverFile replays the journal at path (a missing file is an empty
// journal) and truncates any torn tail, so a subsequently attached
// append writer (journal.Create) continues from the valid prefix
// instead of writing after garbage. It returns the replay stats; on a
// replay error the file is left untouched for post-mortem.
func (m *Manager) RecoverFile(path string) (RecoverStats, error) {
	// A stale checkpoint temp file is the residue of a crash
	// mid-compaction: the rename never happened, so the old journal
	// wins and the half-written checkpoint is dropped.
	os.Remove(path + ".compact")
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return RecoverStats{}, nil
	}
	if err != nil {
		return RecoverStats{}, fmt.Errorf("fleet: recover: %w", err)
	}
	st, rerr := m.Recover(f)
	cerr := f.Close()
	if rerr != nil {
		return st, rerr
	}
	if cerr != nil {
		return st, fmt.Errorf("fleet: recover: %w", cerr)
	}
	if fi, err := os.Stat(path); err == nil && fi.Size() > st.Offset {
		if err := os.Truncate(path, st.Offset); err != nil {
			return st, fmt.Errorf("fleet: truncate torn tail: %w", err)
		}
	}
	return st, nil
}
