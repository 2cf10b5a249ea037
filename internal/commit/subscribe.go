package commit

import "sync"

// Sub is one bounded, gap-free subscription to the commit log. Read
// entries from C; when C closes, Err reports why: nil after Close (the
// consumer's own unsubscribe), ErrClosed when the log shut down, or
// ErrSlowSubscriber when the consumer stopped draining its buffer (in
// which case it should resubscribe from its last seen seq).
//
// Entries arrive in non-decreasing seq order. Ordinary entries step by
// exactly +1; an entry whose seq jumps past the expected one signals
// that compaction dropped the gap — the stream (re)starts from a
// checkpoint and the consumer must treat it as a state reset.
type Sub struct {
	C <-chan Entry

	l    *Log
	ch   chan Entry
	done chan struct{} // closed by Close; unblocks the catch-up pump

	min uint64 // requested fromSeq; live delivery never goes below it

	// Guarded by l.mu.
	live     bool // registered for direct delivery from the commit path
	closed   bool
	err      error
	next     uint64 // pump cursor; owned by the pump goroutine until live
	stopPump sync.Once
}

// Subscribe returns a subscription that first replays every flushed
// entry with seq >= fromSeq — from the in-memory tail, the installed
// checkpoint, or the journal file — and then follows the live commit
// stream, with no gap between the two. fromSeq 0 is treated as 1
// ("from the beginning"); a fromSeq past the log end is ErrFutureSeq.
// buf bounds the delivery buffer (<= 0 selects 256): a live subscriber
// that lags more than buf entries is closed with ErrSlowSubscriber.
//
// When fromSeq predates what the log can still serve gap-free (it was
// compacted away, or fell out of a memory-only log's history), the
// stream instead begins at the oldest available point — checkpoint
// entries or a later first seq — which the consumer detects as a seq
// jump and handles as a reset.
func (l *Log) Subscribe(fromSeq uint64, buf int) (*Sub, error) {
	if fromSeq == 0 {
		fromSeq = 1
	}
	if buf <= 0 {
		buf = 256
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if fromSeq > l.lastSeq+1 {
		return nil, ErrFutureSeq
	}
	s := &Sub{
		l:    l,
		ch:   make(chan Entry, buf),
		done: make(chan struct{}),
		next: fromSeq,
		min:  fromSeq,
	}
	s.C = s.ch
	go s.pump()
	return s, nil
}

// Close unsubscribes. It is safe to call at any time and more than
// once; C is closed and any buffered entries may be discarded.
func (s *Sub) Close() {
	s.l.mu.Lock()
	s.closeLocked(nil)
	s.l.mu.Unlock()
}

// Err reports why C closed (nil until then, and nil after the
// consumer's own Close).
func (s *Sub) Err() error {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	return s.err
}

// closeLocked tears the subscription down; caller holds l.mu.
func (s *Sub) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	delete(s.l.subs, s)
	s.stopPump.Do(func() { close(s.done) })
	if s.live {
		// The pump has exited; this side owns the channel now.
		close(s.ch)
	}
}

// pushLocked delivers one live entry; caller holds l.mu. The send is
// non-blocking: a full buffer means the consumer fell behind, and the
// subscription is closed with ErrSlowSubscriber instead of stalling
// the commit path or skipping entries.
func (s *Sub) pushLocked(e Entry) {
	if e.Seq < s.min {
		// A subscription opened past the flush frontier must not see
		// the older entries that flush after it registers.
		return
	}
	select {
	case s.ch <- e:
	default:
		s.l.overflows++
		s.closeLocked(ErrSlowSubscriber)
	}
}

// send delivers one catch-up entry from the pump, blocking until the
// consumer takes it or the subscription/log winds down.
func (s *Sub) send(e Entry) bool {
	select {
	case s.ch <- e:
		return true
	case <-s.done:
		return false
	case <-s.l.done:
		return false
	}
}

// pump replays the catch-up range and then registers the subscription
// for live delivery, atomically with respect to the commit path: the
// handoff happens under l.mu only when the cursor has reached the
// flush frontier, so no entry is missed and none is delivered twice.
func (s *Sub) pump() {
	l := s.l
	for {
		l.mu.Lock()
		if l.closed || s.closed {
			err := l.failed
			if err == nil {
				err = ErrClosed
			}
			if s.closed {
				err = s.err
			}
			s.finishPumpLocked(err)
			l.mu.Unlock()
			return
		}
		hb := l.histBaseLocked()
		switch {
		case s.next > l.flushed:
			// Caught up: go live.
			s.live = true
			l.subs[s] = struct{}{}
			l.mu.Unlock()
			return
		case s.next >= hb:
			// Within the in-memory tail: copy a chunk and stream it.
			chunk := append([]Entry(nil), l.hist[s.next-hb:]...)
			l.mu.Unlock()
			for _, e := range chunk {
				if !s.send(e) {
					s.exitPump()
					return
				}
			}
			s.next = chunk[len(chunk)-1].Seq + 1
		default:
			// Older than the tail: the journal file, the installed
			// checkpoint, or — when neither can serve it — a reset jump
			// to the oldest available seq.
			path := l.path
			cp, cpSeq := l.cp, l.cpSeq
			limit := l.flushed
			l.mu.Unlock()
			switch {
			case path != "":
				// Entries at or below limit completed their round, so their
				// frames are in the file.
				reached, err := scanFile(path, s.next, limit, s.send)
				if err != nil || reached <= s.next {
					// Unreadable or raced past by compaction: fall back
					// to the oldest in-memory point. The consumer sees
					// the seq jump and resets.
					s.next = hb
				} else {
					s.next = reached
				}
			case len(cp) > 0 && s.next <= cpSeq:
				for _, rec := range cp {
					if !s.send(Entry{Seq: cpSeq, Rec: rec}) {
						s.exitPump()
						return
					}
				}
				s.next = cpSeq + 1
			default:
				// Memory-only log whose history has moved on: reset jump.
				s.next = hb
			}
		}
	}
}

// exitPump records that the pump stopped before going live (the
// consumer closed, or the log shut down) and closes the channel.
func (s *Sub) exitPump() {
	s.l.mu.Lock()
	s.finishPumpLocked(s.err)
	s.l.mu.Unlock()
}

func (s *Sub) finishPumpLocked(err error) {
	if !s.closed {
		s.closed = true
		s.err = err
		s.stopPump.Do(func() { close(s.done) })
	}
	// Pump-owned channel: the sub never went live, so closing here
	// cannot race a live pushLocked.
	close(s.ch)
}
