package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ftnet/internal/commit"
	"ftnet/internal/journal"
)

// This file is the streaming half of the HTTP surface: GET /v1/watch
// serves the commit stream as newline-delimited JSON. Each line is one
// WatchEntry — a committed transition with its fleet-wide sequence
// number — or a heartbeat. The stream is resumable: pass ?from=<seq>
// to continue after the last entry you processed; catch-up comes from
// the journal (or the installed checkpoint) and hands off to the live
// tail with no gap. Followers (ftnetd -follow) are just persistent
// clients of this endpoint that verify and re-commit every record.

// WatchEntry is one NDJSON line of the watch stream: either a
// committed entry (Op set) or a heartbeat (Heartbeat true, Seq the
// last sequence number sent). Entry seqs are non-decreasing; ordinary
// entries step by exactly +1, and a jump means the gap was compacted
// away — the client must resynchronize from the checkpoint entries
// that follow (op "checkpoint", all carrying the seq they cover).
type WatchEntry struct {
	Seq       uint64 `json:"seq,omitempty"`
	Op        string `json:"op,omitempty"`
	ID        string `json:"id,omitempty"`
	Spec      *Spec  `json:"spec,omitempty"`    // create / checkpoint
	Epoch     uint64 `json:"epoch,omitempty"`   // transition / checkpoint
	Applied   int    `json:"applied,omitempty"` // transition
	Faults    []int  `json:"faults,omitempty"`  // transition / checkpoint
	Term      uint64 `json:"term,omitempty"`    // termbump (the new leadership term)
	Heartbeat bool   `json:"heartbeat,omitempty"`
	// Ts is the leader's commit wall-clock in unix nanoseconds, when
	// known (live entries only — catch-up from the journal has no
	// timestamp and omits the field). Followers subtract it from their
	// own clock to estimate replication entry age.
	Ts int64 `json:"ts,omitempty"`
}

// watchEntryFrom converts a commit entry to its wire form.
func watchEntryFrom(e commit.Entry) WatchEntry {
	we := WatchEntry{
		Seq:     e.Seq,
		Op:      e.Rec.Op.String(),
		ID:      e.Rec.ID,
		Epoch:   e.Rec.Epoch,
		Applied: e.Rec.Applied,
		Faults:  e.Rec.Faults,
		Term:    e.Rec.Term,
		Ts:      e.At,
	}
	if e.Rec.Op == journal.OpCreate || e.Rec.Op == journal.OpCheckpoint || e.Rec.Op == journal.OpMigrate {
		spec := fleetSpec(e.Rec.Spec)
		we.Spec = &spec
	}
	return we
}

// Entry converts a received wire entry back to a commit entry.
func (we WatchEntry) Entry() (commit.Entry, error) {
	op, err := journal.ParseOp(we.Op)
	if err != nil {
		return commit.Entry{}, fmt.Errorf("fleet: watch entry: %w", err)
	}
	rec := journal.Record{Op: op, ID: we.ID, Epoch: we.Epoch, Applied: we.Applied, Faults: we.Faults}
	if op == journal.OpTermBump {
		rec.ID = journal.SeqBaseID
		rec.Term = we.Term
	}
	if we.Spec != nil {
		rec.Spec = journalSpec(*we.Spec)
	}
	return commit.Entry{Seq: we.Seq, Rec: rec, At: we.Ts}, nil
}

// Watch stream tuning: the default and the accepted bounds of the
// ?heartbeat interval, and the per-connection delivery buffer.
const (
	defaultWatchHeartbeat = 5 * time.Second
	minWatchHeartbeat     = 50 * time.Millisecond
	maxWatchHeartbeat     = time.Minute
	watchBuffer           = 1024
)

// watch serves GET /v1/watch?from=<seq>[&heartbeat=<dur>]: catch up
// from seq, then stream the live commit tail. Entries are flushed as
// they arrive (batched when a burst is already buffered), heartbeats
// keep idle connections verifiably alive, and a client that cannot
// keep up is disconnected (commit.ErrSlowSubscriber) rather than
// silently skipped — it resumes from its last seq and the catch-up
// path fills the gap.
func (s *apiServer) watch(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if fs := r.URL.Query().Get("from"); fs != "" {
		v, err := strconv.ParseUint(fs, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("bad from %q: %v", fs, err))
			return
		}
		from = v
	}
	hb := defaultWatchHeartbeat
	if hs := r.URL.Query().Get("heartbeat"); hs != "" {
		d, err := time.ParseDuration(hs)
		if err != nil {
			writeError(w, fmt.Errorf("bad heartbeat %q: %v", hs, err))
			return
		}
		hb = min(max(d, minWatchHeartbeat), maxWatchHeartbeat)
	}
	// Advertise the leadership term in force (and the seq of the entry
	// that set it) on every watch response — including the 416 rejection
	// below. A reconnecting replica compares them against its own state
	// BEFORE consuming any entries: a lower term here means this server
	// is a stale leader and must not be followed; a higher term combined
	// with a from beyond the term fence means the caller is a deposed
	// leader holding un-replicated suffix it must discard.
	term, termSeq := s.mgr.pipe.log.Term()
	w.Header().Set("X-Ftnet-Term", strconv.FormatUint(term, 10))
	w.Header().Set("X-Ftnet-Term-Seq", strconv.FormatUint(termSeq, 10))
	sub, err := s.mgr.Subscribe(from, watchBuffer)
	if err == commit.ErrFutureSeq {
		writeJSON(w, http.StatusRequestedRangeNotSatisfiable,
			apiError{Error: fmt.Sprintf("from=%d is past the log end (next seq %d)", from, s.mgr.NextSeq())})
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()

	// The response streams indefinitely: lift the server's per-request
	// read/write deadlines for this connection (the rest of the API
	// keeps them — they are what bounds slow-client request bodies).
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})
	rc.SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	// Heartbeats carry the last sequence number sent — on a resumed but
	// idle stream that is the seq just before the requested one, so a
	// client persisting the heartbeat seq as its resume cursor never
	// rewinds.
	var lastSeq uint64
	if from > 0 {
		lastSeq = from - 1
	}
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				// Log closed or this client fell behind; either way the
				// client reconnects with from=lastSeq+1 and resumes.
				return
			}
			// Drain whatever is already buffered before flushing once —
			// one write per burst, not per entry — but cap the batch so a
			// client on a flaky link always makes progress between cuts.
			for drained := 0; ; {
				lastSeq = e.Seq
				if err := enc.Encode(watchEntryFrom(e)); err != nil {
					return
				}
				if drained++; drained >= 8 {
					break
				}
				select {
				case e, ok = <-sub.C:
					if !ok {
						flush()
						return
					}
					continue
				default:
				}
				break
			}
			flush()
		case <-ticker.C:
			if err := enc.Encode(WatchEntry{Heartbeat: true, Seq: lastSeq}); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// compact serves POST /v1/compact: checkpoint every instance's state
// and truncate the journal prefix, bounding replay length for restarts
// and fresh followers.
func (s *apiServer) compact(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Compact()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
