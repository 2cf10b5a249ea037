package commit

import "fmt"

// Collect returns the committed entries with sequence numbers in
// [from, to], oldest first — the synchronous, bounded cousin of
// Subscribe, built for migration suffix export: "give me everything
// between the staged checkpoint and the fence seq". from 0 is treated
// as 1; to past the log end is ErrFutureSeq; an empty range returns
// nil.
//
// Sources mirror the subscriber pump: the in-memory tail, the journal
// file on disk, or the installed checkpoint. When compaction has
// dropped part of the range, the checkpoint's records are returned in
// its place — entries carrying the checkpoint seq, the same reset
// signal a subscriber sees. Entries still mid-pipeline (sequence
// assigned but not yet durable) are not returned: a caller exporting
// one instance holds that instance's write lock, so none of *its*
// entries can be in flight, and other instances' in-flight entries are
// noise it filters out anyway.
func (l *Log) Collect(from, to uint64) ([]Entry, error) {
	if from == 0 {
		from = 1
	}
	var out []Entry
	next := from
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		if to > l.lastSeq {
			l.mu.Unlock()
			return nil, fmt.Errorf("%w: collect to %d past last seq %d", ErrFutureSeq, to, l.lastSeq)
		}
		if next > to {
			l.mu.Unlock()
			return out, nil
		}
		hb := l.histBaseLocked()
		switch {
		case next > l.flushed:
			// The rest of the range is still in pending: hand out the
			// ready entries (durable, published, merely queued behind an
			// earlier in-flight seq) and stop.
			for i := range l.pending {
				if e := l.pending[i]; e.ready && e.e.Seq >= next && e.e.Seq <= to {
					out = append(out, e.e)
				}
			}
			l.mu.Unlock()
			return out, nil
		case next >= hb:
			end := min(to, l.flushed)
			out = append(out, l.hist[next-hb:end-hb+1]...)
			next = end + 1
			l.mu.Unlock()
		default:
			// Older than the tail: the journal file, the installed
			// checkpoint, or — when neither can serve it — a reset jump to
			// the oldest in-memory seq.
			path := l.path
			cp, cpSeq := l.cp, l.cpSeq
			limit := min(to, l.flushed)
			l.mu.Unlock()
			served := false
			if path != "" {
				reached, err := scanFile(path, next, limit, func(e Entry) bool {
					out = append(out, e)
					return true
				})
				if err == nil && reached > next {
					next = reached
					served = true
				}
			}
			if !served {
				if len(cp) > 0 && next <= cpSeq {
					for _, rec := range cp {
						out = append(out, Entry{Seq: cpSeq, Rec: rec})
					}
					next = cpSeq + 1
				} else {
					// History moved on underneath us: reset jump, like a
					// subscriber racing compaction.
					next = hb
				}
			}
		}
	}
}
