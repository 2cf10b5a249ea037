package fleet

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"ftnet/internal/ft"
	"ftnet/internal/journal"
)

// RecoverStats summarizes one journal replay. Offset is the byte
// length of the valid record prefix — when Torn is set, everything
// past Offset was a torn or corrupt tail (the signature of a crash
// mid-append) and was dropped; RecoverFile truncates the file there so
// fresh appends continue from clean state. Orphaned counts transition
// records that trail their instance's delete record with no re-create
// in between. Current writers cannot produce such records (Delete
// retires the instance under its writer mutex before appending the
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
	Built       int     `json:"built"`       // snapshots constructed: one per instance with transitions, one per checkpoint/migrate record
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
// instance to its exact pre-crash epoch, fault set, and mapping. A
// record carries the whole fault set after its transition, so replay is
// a fold: every record is verified where it stands — CRC and canonical
// decode by the reader, then the epoch chain (exactly the successor of
// the instance's last replayed epoch) and ft.CheckRestore (budget,
// range, order) — but only the last one per instance is built, by one
// ft.Restore when the walk ends. A log that decodes but encodes an
// impossible state (epoch gap, budget overflow, fault out of range)
// fails recovery at that record rather than being accepted, and the
// manager is then left in exactly the state of the valid prefix before
// it, for post-mortem: the build step runs on every return. Creates,
// deletes, checkpoints and migrate arrivals are applied as they are
// read.
//
// A torn tail (ErrTorn from the reader) is not an error: it is the
// expected residue of a crash mid-append. Replay keeps every complete
// record before the tear, reports it in the stats, and the caller
// truncates (RecoverFile does so automatically).
//
// Recover never journals its own replayed operations; it is meant to
// run on boot, before traffic — and before SetJournal attaches the
// append writer to the recovered file. Nothing may read the manager
// while it runs: between a transition record and the end of the walk an
// instance still serves the snapshot it had before.
func (m *Manager) Recover(r io.Reader) (RecoverStats, error) {
	start := time.Now()
	rp := replay{m: m, slots: make(map[string]*replaySlot), st: RecoverStats{BaseSeq: 1, NextSeq: 1}}
	jr := journal.NewReader(r)
	err := rp.walk(jr)
	if berr := rp.build(); err == nil {
		err = berr
	}
	st := rp.st
	if err != nil {
		return st, err
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

// replay is the state of one Recover: the stats so far and, per
// instance id the log has named, its replay slot.
type replay struct {
	m     *Manager
	st    RecoverStats
	slots map[string]*replaySlot
}

// replaySlot is one instance's place in the fold. in is the live
// instance, or nil once a delete record has removed the id (a later
// transition for it is an orphan); epoch is the last epoch replayed
// for it, published or staged; faults, when staged is set, is the
// fault set of that epoch, verified and waiting for build. The buffer
// is reused from record to record, so staging a transition allocates
// nothing.
type replaySlot struct {
	in     *Instance
	epoch  uint64
	faults []int
	staged bool
}

// replace points id's slot at a new incarnation of the instance (nil
// for none), dropping whatever was staged for the old one.
func (rp *replay) replace(id string, in *Instance, epoch uint64) *replaySlot {
	s := rp.slots[id]
	if s == nil {
		s = new(replaySlot)
		rp.slots[id] = s
	}
	s.in, s.epoch, s.staged = in, epoch, false
	return s
}

// slot returns the slot of the instance a transition record names. An
// instance the manager held before Recover began gets its slot on first
// sight.
func (rp *replay) slot(id []byte) *replaySlot {
	if s := rp.slots[string(id)]; s != nil {
		return s
	}
	in, ok := rp.m.GetBytes(id)
	if !ok {
		return nil
	}
	return rp.replace(in.id, in, in.snap.Load().Epoch())
}

// build constructs and publishes the snapshot of every instance with a
// staged transition. The fault sets passed ft.CheckRestore when they
// were staged, so ft.Restore accepts them.
func (rp *replay) build() error {
	for _, s := range rp.slots {
		if !s.staged {
			continue
		}
		snap, err := s.in.restoredSnapshot(s.epoch, s.faults)
		if err != nil {
			return fmt.Errorf("fleet: recover: %w", err)
		}
		s.in.snap.Store(snap)
		s.staged = false
		rp.st.Built++
	}
	return nil
}

// complete applies a checkpoint or migrate-arrival record: the
// instance's complete state, authoritative over anything replayed for
// the id so far. The new incarnation is built before it replaces the
// old one, so a record that is refused leaves the old one registered and
// whatever was staged for it in its slot, for build.
func (rp *replay) complete(v *journal.View) error {
	in, err := rp.m.restore(journal.Record{ID: string(v.ID), Spec: v.Spec, Epoch: v.Epoch, Faults: v.Faults}, phaseLive)
	if err != nil {
		return err
	}
	rp.m.setRaw(in, true)
	rp.replace(in.id, in, v.Epoch)
	rp.st.Built++
	if v.Epoch > rp.st.LastEpoch {
		rp.st.LastEpoch = v.Epoch
	}
	return nil
}

// transition verifies one transition record against its instance's
// slot and stages its fault set there.
func (rp *replay) transition(v *journal.View) error {
	s := rp.slot(v.ID)
	if s == nil {
		return fmt.Errorf("transition for unknown instance %q", v.ID)
	}
	in := s.in
	if in == nil {
		rp.st.Orphaned++
		return nil
	}
	if err := successor(in.id, s.epoch, v.Epoch); err != nil {
		return err
	}
	if err := ft.CheckRestore(in.nTarget, in.nHost, in.spec.K, v.Faults); err != nil {
		return corruptStatef(in.id, v.Epoch, err)
	}
	s.faults = append(s.faults[:0], v.Faults...)
	s.epoch, s.staged = v.Epoch, true
	rp.st.Transitions++
	if v.Epoch > rp.st.LastEpoch {
		rp.st.LastEpoch = v.Epoch
	}
	return nil
}

// walk reads the journal to its end, a torn tail, or the first record
// it must refuse.
func (rp *replay) walk(jr *journal.Reader) error {
	st := &rp.st
	var v journal.View
	for {
		err := jr.Scan(&v)
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, journal.ErrTorn) {
			st.Torn = true
			st.TornReason = err.Error()
			return nil
		}
		if err != nil {
			return fmt.Errorf("fleet: recover: %w", err)
		}
		st.Records++
		switch v.Op {
		case journal.OpSeqBase:
			// Metadata, not a transition: a compacted file leads with the
			// commit seq of its first post-checkpoint record — and the
			// leadership term in force at the cut — so both survive the
			// checkpoint-and-truncate swap.
			st.BaseSeq = v.Seq
			st.NextSeq = v.Seq
			if v.Term < st.Term {
				err = fmt.Errorf("seq base term %d below term %d in force", v.Term, st.Term)
				break
			}
			st.Term = v.Term
			st.TermSeq = 0
		case journal.OpCheckpoint:
			// One instance's complete state at the compaction cut; does
			// not consume a commit seq (it summarizes the dropped prefix).
			if err = rp.complete(&v); err != nil {
				break
			}
			st.Checkpoints++
		case journal.OpMigrate:
			// An instance that arrived via checkpoint-streamed migration:
			// same complete-state shape as a checkpoint, but it consumes a
			// commit seq — it is an ordinary entry this daemon's followers
			// replicated, not a summary of a dropped prefix.
			if err = rp.complete(&v); err != nil {
				break
			}
			st.Migrated++
			st.NextSeq++
		case journal.OpCreate:
			var in *Instance
			if in, err = newInstance(string(v.ID), fleetSpec(v.Spec), rp.m.pipe); err != nil {
				break
			}
			if err = rp.m.setRaw(in, false); err != nil {
				break
			}
			rp.replace(in.id, in, 0) // ids may be reused after a delete
			st.Created++
			st.NextSeq++
		case journal.OpDelete:
			id := string(v.ID)
			rp.m.unsetRaw(id)
			rp.replace(id, nil, 0)
			st.Deleted++
			st.NextSeq++
		case journal.OpTermBump:
			// The leadership fence consumes a commit seq like any ordinary
			// record, and the chain must be strictly increasing — a log
			// where the term goes backwards is a deposed leader's suffix
			// that should have been discarded, so replay refuses it.
			if v.Term <= st.Term {
				err = fmt.Errorf("term bump to %d but term %d already in force", v.Term, st.Term)
				break
			}
			st.Term = v.Term
			st.TermSeq = st.NextSeq
			st.NextSeq++
			st.TermBumps++
		case journal.OpTransition:
			st.NextSeq++
			err = rp.transition(&v)
		default:
			err = fmt.Errorf("unknown op %v", v.Op)
		}
		if err != nil {
			return fmt.Errorf("fleet: recover record %d: %w", st.Records, err)
		}
	}
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
