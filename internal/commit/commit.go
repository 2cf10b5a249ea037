// Package commit is the single ordered transition pipeline of the
// reconfiguration service. Every accepted state change — instance
// create, delete, fault/repair transition — becomes one Entry: the
// canonical journal record plus a fleet-wide sequence number. An entry
// flows through exactly one ordered stage:
//
//	append to the WAL -> wait durable -> publish -> fan out
//
// so the journal on disk, the snapshot pointer readers see, and every
// subscriber's stream all observe the same transitions in the same
// gap-free order. The design is the paper's Section V move of
// replacing per-consumer point-to-point wiring with one shared bus:
// the journal file, the live watch endpoint, follower replication and
// checkpoint compaction are all just consumers of this one log.
//
// Concurrency shape: sequence numbers and WAL buffering happen under
// one small mutex (Begin), but the durability wait happens outside it
// (Complete), so concurrent committers still share fsyncs via the
// journal writer's group commit — and one committer shares its own: a
// round of entries begun one after another completes behind a single
// wait on the last of them. Fan-out is then re-serialized: each
// committer marks its entries ready and delivers the in-order ready
// prefix, so subscribers never observe entry n+1 before entry n, and
// never observe an entry that is not yet durable (per the fsync
// policy). Commit is a round of one.
//
// Subscriptions are bounded and gap-free. Subscribe(fromSeq) first
// catches up — from the in-memory tail, the installed checkpoint, or
// the journal file on disk — then hands off to live delivery
// atomically. A subscriber that stops draining its buffer is closed
// with ErrSlowSubscriber rather than silently dropping entries; it can
// resubscribe from its last seen sequence number. When compaction has
// dropped the requested prefix the stream instead begins with the
// current checkpoint (entries carrying the checkpoint's sequence
// number), which a consumer must treat as a state reset. The
// subscriber's pump is the log's only reader of its own past: nothing
// else — a migration least of all, which ships an instance's current
// state and no history — looks behind the flush frontier.
package commit

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ftnet/internal/journal"
	"ftnet/internal/obs"
)

// Entry is one committed transition: the canonical journal record plus
// its fleet-wide sequence number. Ordinary entries have strictly
// ascending sequence numbers with no gaps; checkpoint entries (from a
// compaction) all carry the sequence number their state covers, so a
// stream may open with several entries at one seq before resuming
// strict +1 steps.
//
// At is the leader's commit wall-clock (unix nanoseconds), stamped
// when the sequence number of its round's first entry was assigned:
// every entry of one commit round carries that one stamp. It rides the
// watch stream so followers can measure entry age, but it is NOT part
// of the canonical journal record: entries replayed from disk
// (catch-up, recovery) carry At == 0, and consumers must treat 0 as
// "age unknown".
type Entry struct {
	Seq uint64
	Rec journal.Record
	At  int64
}

// The subscription and commit error categories.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("commit: log closed")
	// ErrSlowSubscriber closes a live subscription whose buffer
	// overflowed; the consumer resubscribes from its last sequence
	// number and the catch-up path fills the gap.
	ErrSlowSubscriber = errors.New("commit: subscriber fell behind its buffer")
	// ErrFutureSeq rejects subscriptions starting past the log end.
	ErrFutureSeq = errors.New("commit: subscription starts past the log end")
	// ErrStaleTerm rejects a term bump that does not move the term
	// strictly forward — the commit-plane fence that makes a deposed
	// leader's writes impossible to re-introduce.
	ErrStaleTerm = errors.New("commit: stale term")
)

// DefaultHistory is the in-memory tail buffer (entries) kept for
// subscriber catch-up when none is configured. Entries are O(k), so
// this is small; anything older is served from the journal file.
const DefaultHistory = 4096

// Config configures a Log.
type Config struct {
	// Writer, when non-nil, makes every committed entry durable before
	// it is published or fanned out. File-backed writers (journal.Create)
	// additionally enable catch-up from disk and on-disk compaction.
	Writer *journal.Writer
	// History caps the in-memory catch-up tail (<= 0 selects
	// DefaultHistory).
	History int
	// Obs, when non-nil, receives the pipeline's stage-timing
	// histograms (append, fsync wait, publish, fan-out). A nil registry
	// still records into private histograms, so instrumentation has no
	// branches on the hot path.
	Obs *obs.Registry
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Base         uint64 `json:"base"`                    // first seq in the current journal file
	LastSeq      uint64 `json:"last_seq"`                // highest assigned seq
	Subscribers  int    `json:"subscribers"`             // live subscriptions
	Compactions  uint64 `json:"compactions"`             // Install calls that succeeded
	Overflows    uint64 `json:"overflows"`               // subscriptions closed as too slow
	Checkpoint   int    `json:"checkpoint"`              // records in the installed checkpoint
	CheckpointAt uint64 `json:"checkpoint_at,omitempty"` // seq the checkpoint covers
	Term         uint64 `json:"term"`                    // leadership term in force (0 = pre-term log)
	TermSeq      uint64 `json:"term_seq,omitempty"`      // seq of the entry that set the term
}

type pendingEntry struct {
	e     Entry
	ready bool
}

// Log is the ordered commit pipeline. All methods are safe for
// concurrent use except SetPosition and SetWriter, which are boot-time
// wiring (before the first Commit).
type Log struct {
	history int

	mu      sync.Mutex
	w       *journal.Writer
	path    string           // non-empty when w is file-backed
	base    uint64           // seq of the first ordinary record in the current file
	lastSeq uint64           // highest assigned seq
	flushed uint64           // highest seq delivered to history + subscribers
	pending []pendingEntry   // assigned, not yet flushed; ascending seq
	hist    []Entry          // flushed tail, [histBase, flushed]
	cp      []journal.Record // last installed checkpoint (state as of cpSeq)
	cpSeq   uint64
	subs    map[*Sub]struct{}
	failed  error // sticky commit-path failure (journal poisoned)
	closed  bool

	// Leadership term fence. term is the highest term observed (via
	// OpTermBump commits or SetTerm recovery wiring); termSeq is the
	// commit seq of the entry that set it (0 when the term predates the
	// current file, e.g. restored from an OpSeqBase marker). Commit
	// refuses OpTermBump records that do not move the term strictly
	// forward, so a deposed leader's fence can never land.
	term    uint64
	termSeq uint64

	compactions uint64
	overflows   uint64

	// Stage histograms, resolved once at construction — hot-path
	// recording is branch-free atomic adds. The four stages partition
	// one commit, one sample per round each: sequencing + WAL buffering
	// of the round's first entry under the lock (in Begin), then, in
	// Complete, the group-commit durability wait, the callers' snapshot
	// publishes, and the ready-prefix fan-out to subscribers.
	appendHist *obs.Histogram
	fsyncHist  *obs.Histogram
	pubHist    *obs.Histogram
	fanoutHist *obs.Histogram
	roundHist  *obs.Histogram // records per Complete (unit: records)

	done chan struct{} // closed by Close; unblocks catch-up pumps

	// testHookBeforeSwap, when set, runs after the checkpoint temp file
	// is written but before the atomic rename — the crash-injection
	// point for "old file must win" tests. A non-nil error aborts the
	// install as a crash would.
	testHookBeforeSwap func() error
}

// NewLog returns an empty pipeline at sequence position (base 1, last
// 0). Attach recovery state with SetPosition and a durable writer with
// SetWriter (or Config.Writer) before committing.
func NewLog(cfg Config) *Log {
	l := &Log{
		history: cfg.History,
		base:    1,
		subs:    make(map[*Sub]struct{}),
		done:    make(chan struct{}),
	}
	if l.history <= 0 {
		l.history = DefaultHistory
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	l.appendHist = reg.Histogram("ftnet_commit_append_seconds",
		"Time to assign a sequence number and buffer the WAL frame (under the ordering lock), one sample per commit round: its first entry's.")
	l.fsyncHist = reg.Histogram("ftnet_commit_fsync_wait_seconds",
		"Time a commit waits for its record to become durable (group-commit fsync stalls).")
	l.pubHist = reg.Histogram("ftnet_commit_publish_seconds",
		"Time in the caller's publish callback (snapshot pointer store).")
	l.fanoutHist = reg.Histogram("ftnet_commit_fanout_seconds",
		"Time delivering the in-order ready prefix to live subscribers.")
	// The unit is records, not seconds (the shape of
	// ftnet_rpc_flush_frames): each durability wait observes how many
	// records it covered for its own committer.
	l.roundHist = reg.Histogram("ftnet_commit_round_records",
		"Records per commit round, i.e. per durability wait (unit: records — the commit-side batching factor distribution).")
	if cfg.Writer != nil {
		l.SetWriter(cfg.Writer)
	}
	return l
}

// SetWriter attaches (or replaces) the durability writer. Boot-time
// wiring: recover the old log first, then attach the append writer —
// concurrent use with Commit is not supported.
func (l *Log) SetWriter(w *journal.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = w
	l.path = ""
	if w != nil {
		l.path = w.Path()
	}
}

// SetPosition installs the sequence position a journal replay
// recovered: base is the first ordinary record's seq in the file,
// last the seq of its final record. Boot-time wiring, like SetWriter.
func (l *Log) SetPosition(base, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if base == 0 {
		base = 1
	}
	l.base = base
	l.lastSeq = last
	l.flushed = last
}

// SetTerm installs the leadership term a journal replay (or a
// follower resync) recovered: term is the highest term in the chain,
// termSeq the commit seq of the record that set it (0 when the term
// was carried by the file's OpSeqBase marker rather than an in-file
// bump). Boot/resync wiring, like SetPosition.
func (l *Log) SetTerm(term, termSeq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.term = term
	l.termSeq = termSeq
}

// Term returns the leadership term in force and the commit seq of the
// entry that established it (0 when inherited from a compaction
// marker or never bumped).
func (l *Log) Term() (term, termSeq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term, l.termSeq
}

// Writer returns the attached journal writer (nil when the log is
// memory-only) — the stats surface reads its counters.
func (l *Log) Writer() *journal.Writer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w
}

// LastSeq returns the highest assigned sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// NextSeq returns the sequence number the next committed entry will
// carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq + 1
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Base:         l.base,
		LastSeq:      l.lastSeq,
		Subscribers:  len(l.subs),
		Compactions:  l.compactions,
		Overflows:    l.overflows,
		Checkpoint:   len(l.cp),
		CheckpointAt: l.cpSeq,
		Term:         l.term,
		TermSeq:      l.termSeq,
	}
}

// histBaseLocked returns the seq of hist[0]; callers hold l.mu and
// must only use it when hist is non-empty (otherwise it returns
// flushed+1, the "nothing buffered" sentinel that still compares
// correctly).
func (l *Log) histBaseLocked() uint64 {
	return l.flushed - uint64(len(l.hist)) + 1
}

// Pending is one entry between Begin and Complete: sequenced and
// buffered in the WAL, not yet durable, published or fanned out. At is
// its Entry.At — the stamp a round's later entries pass to Begin.
type Pending struct {
	Seq     uint64          // the commit sequence number Begin assigned
	At      int64           // the entry's commit stamp, unix nanoseconds
	w       *journal.Writer // nil on a memory-only log
	wseq    uint64          // w's record number, what WaitDurable takes
	publish func()
}

// Begin is the first half of a commit: under the ordering lock it
// checks the term fence, buffers rec's WAL frame and assigns the next
// sequence number. The entry then sits in the pipeline — invisible to
// readers and subscribers — until a Complete that includes it
// returns. Every successful Begin must be followed by exactly one such
// Complete; Install refuses while any entry is in between. A non-nil
// error means nothing was sequenced.
//
// at is the entry's commit stamp. A round's first entry passes 0: Begin
// reads the clock, stamps the entry and times its append. Every later
// entry of the round passes the first's Pending.At and reads no clock.
func (l *Log) Begin(rec journal.Record, publish func(), at int64) (Pending, error) {
	var start time.Time
	if at == 0 {
		start = time.Now()
		at = start.UnixNano()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Pending{}, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return Pending{}, err
	}
	// The term fence: a bump must move the term strictly forward
	// (multi-term jumps are fine — elections can skip terms), checked
	// under the ordering lock so two racing promotions serialize and
	// the loser is rejected, not reordered.
	if rec.Op == journal.OpTermBump && rec.Term <= l.term {
		cur := l.term
		l.mu.Unlock()
		return Pending{}, fmt.Errorf("%w: bump to %d but term %d is in force", ErrStaleTerm, rec.Term, cur)
	}
	w := l.w
	var wseq uint64
	if w != nil {
		var err error
		if wseq, err = w.AppendAsync(rec); err != nil {
			l.failed = err
			l.mu.Unlock()
			return Pending{}, err
		}
	}
	l.lastSeq++
	seq := l.lastSeq
	if rec.Op == journal.OpTermBump {
		l.term = rec.Term
		l.termSeq = seq
	}
	l.pending = append(l.pending, pendingEntry{e: Entry{Seq: seq, Rec: rec, At: at}})
	l.mu.Unlock()
	if !start.IsZero() {
		l.appendHist.Observe(time.Since(start))
	}
	return Pending{Seq: seq, At: at, w: w, wseq: wseq, publish: publish}, nil
}

// Complete is the second half, for a whole round at once: round holds
// the entries one goroutine began, in Begin order. It waits until the
// last of them is durable per the fsync policy — durability is
// prefix-ordered, so that one wait (outside the ordering lock, sharing
// group commits with concurrent committers) covers them all — then
// calls every publish in order, and finally fans the entries out to
// subscribers, in sequence order. A non-nil error means no transition
// of the round may be acknowledged: none was published or fanned out,
// and the pipeline is poisoned exactly like the journal writer.
//
// The fsync-wait, publish and fan-out histograms record one sample per
// round; ftnet_commit_round_records says how many records shared it.
func (l *Log) Complete(round []Pending) error {
	if len(round) == 0 {
		return nil
	}
	start := time.Now()
	if last := round[len(round)-1]; last.w != nil {
		if err := last.w.WaitDurable(last.wseq); err != nil {
			// Not durable, not acknowledged. The writer is poisoned, so
			// nothing sequenced after the round's last entry can become
			// durable either; an entry another committer slipped between
			// two of ours may have, and then stays behind the hole we
			// leave — acknowledged to its client, never fanned out. That
			// is the poisoned log's contract: subscribers see silence,
			// not a gap.
			l.mu.Lock()
			l.failed = err
			i := 0 // both lists ascend by seq
			l.pending = slices.DeleteFunc(l.pending, func(pe pendingEntry) bool {
				ours := i < len(round) && pe.e.Seq == round[i].Seq
				if ours {
					i++
				}
				return ours
			})
			l.mu.Unlock()
			return err
		}
	}
	durable := time.Now()
	l.fsyncHist.Observe(durable.Sub(start))
	for i := range round {
		if round[i].publish != nil {
			round[i].publish()
		}
	}
	published := time.Now()
	l.pubHist.Observe(published.Sub(durable))

	l.mu.Lock()
	// Both lists ascend by seq, so one pass marks the whole round.
	i := 0
	for j := range l.pending {
		if l.pending[j].e.Seq == round[i].Seq {
			l.pending[j].ready = true
			if i++; i == len(round) {
				break
			}
		}
	}
	l.flushReadyLocked()
	l.mu.Unlock()
	l.fanoutHist.Observe(time.Since(published))
	l.roundHist.Observe(time.Duration(len(round)))
	return nil
}

// Commit runs one transition through the pipeline, as a round of one:
// Begin, then Complete. A non-nil error means the transition must not
// be acknowledged.
func (l *Log) Commit(rec journal.Record, publish func()) (uint64, error) {
	p, err := l.Begin(rec, publish, 0)
	if err != nil {
		return 0, err
	}
	one := [1]Pending{p}
	if err := l.Complete(one[:]); err != nil {
		return 0, err
	}
	return p.Seq, nil
}

// flushReadyLocked moves the in-order ready prefix of pending into the
// history tail and delivers it to live subscribers. Caller holds l.mu.
// Neither list gives up its buffer: slices.Delete copies the rest down
// and clears what it vacates, for pending on every pop and for the
// tail once it is half as long again as the history it keeps, so the
// copy amortizes to O(1) per commit and a steady state allocates
// nothing. (Catch-up copies out of hist under the lock, so moving
// entries within it is safe.)
func (l *Log) flushReadyLocked() {
	n := 0
	for n < len(l.pending) && l.pending[n].ready && l.pending[n].e.Seq == l.flushed+1 {
		e := l.pending[n].e
		n++
		l.flushed = e.Seq
		l.hist = append(l.hist, e)
		if len(l.hist) > l.history+l.history/2 {
			l.hist = slices.Delete(l.hist, 0, len(l.hist)-l.history)
		}
		for s := range l.subs {
			s.pushLocked(e)
		}
	}
	l.pending = slices.Delete(l.pending, 0, n)
}

// Close shuts the pipeline down: further commits fail with ErrClosed
// and every subscription channel is closed. The attached journal
// writer is closed too (flushing and fsyncing its tail).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.done)
	for s := range l.subs {
		s.closeLocked(ErrClosed)
	}
	w := l.w
	l.mu.Unlock()
	if w != nil {
		return w.Close()
	}
	return nil
}

// Quiesce closes every live subscription with ErrClosed but leaves the
// log itself open: commits still succeed and the journal writer stays
// attached. It is the graceful-shutdown half-step between draining
// request traffic and closing the journal — watch streams end at a
// record boundary (a clean EOF for the consumer) while the final
// flush+fsync still lies ahead.
func (l *Log) Quiesce() {
	l.mu.Lock()
	for s := range l.subs {
		s.closeLocked(ErrClosed)
	}
	l.mu.Unlock()
}

// Install atomically replaces the log's on-disk prefix with a
// checkpoint: cps must capture the complete fleet state as of sequence
// number seq. The journal file is rewritten as [seq-base marker,
// checkpoint records], swapped into place with an atomic rename (a
// crash before the rename leaves the old file untouched — old file
// wins), and the append writer reopened over it; subsequent commits
// continue at seq+1. The checkpoint is also retained in memory so
// fresh subscribers can catch up without touching the file.
//
// The caller must guarantee no commit is in flight (the fleet layer
// holds its commit gate exclusively) and, for a leader compaction,
// seq == LastSeq(). A follower installing a checkpoint it received may
// pass any seq; live subscribers then see the next entries jump to
// seq+1, the documented reset signal.
func (l *Log) Install(seq uint64, cps []journal.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.pending) > 0 {
		return fmt.Errorf("commit: install with %d entries in flight", len(l.pending))
	}
	if l.w != nil && l.path != "" {
		if err := l.installFileLocked(seq, cps); err != nil {
			return err
		}
	}
	l.cp = slices.Clone(cps)
	l.cpSeq = seq
	l.base = seq + 1
	l.lastSeq = seq
	l.flushed = seq
	// Drop the pre-checkpoint history: catch-up below seq now serves
	// the checkpoint (strictly bounded, the point of compacting) and a
	// subscriber resuming inside the dropped range resynchronizes from
	// it — the same reset it would see after a restart.
	clear(l.hist)
	l.hist = l.hist[:0]
	l.compactions++
	return nil
}

// installFileLocked writes the checkpoint to a temp file, fsyncs it,
// renames it over the journal, and swaps the append writer.
func (l *Log) installFileLocked(seq uint64, cps []journal.Record) error {
	tmp := l.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("commit: checkpoint temp: %w", err)
	}
	// Buffered appends: the one explicit Sync below writes and fsyncs the
	// whole checkpoint, not a write per instance.
	tw := journal.NewWriter(f, journal.Options{Sync: journal.SyncNever})
	_, werr := tw.AppendAsync(journal.Record{Op: journal.OpSeqBase, ID: journal.SeqBaseID, Seq: seq + 1, Term: l.term})
	for _, rec := range cps {
		if werr != nil {
			break
		}
		_, werr = tw.AppendAsync(rec)
	}
	if werr == nil {
		werr = tw.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit: write checkpoint: %w", werr)
	}
	if l.testHookBeforeSwap != nil {
		if err := l.testHookBeforeSwap(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit: swap checkpoint: %w", err)
	}
	syncDir(l.path)
	// The old writer's file is now unlinked; append to the fresh
	// checkpoint from here on.
	nw, err := l.w.Reopen()
	if err != nil {
		l.failed = fmt.Errorf("commit: reopen journal after compaction: %w", err)
		return l.failed
	}
	l.w = nw
	return nil
}

// syncDir fsyncs the directory containing path so the rename itself is
// durable; best effort (some filesystems refuse directory fsyncs).
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
}

// scanFile reads complete records from the journal file at path,
// calling emit for each entry whose seq is in [from, limit], and
// returns the seq the scan reached (the next unseen seq). Sequence
// numbers are positional — OpSeqBase records reset the counter,
// checkpoint records carry the seq before the base, every other record
// consumes one — mirroring how the records were committed. Records
// outside the range are scanned in place (verified and counted, never
// copied), so resuming near the tail costs what it emits. A torn tail
// ends the scan cleanly: under a live writer it is just the flush
// frontier, and entries past limit are not yet flushed anyway.
func scanFile(path string, from, limit uint64, emit func(Entry) bool) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return from, err
	}
	defer f.Close()
	jr := journal.NewReader(f)
	var v journal.View
	next := uint64(1)
	for {
		err := jr.Scan(&v)
		if err == io.EOF || errors.Is(err, journal.ErrTorn) {
			return next, nil
		}
		if err != nil {
			return next, err
		}
		switch v.Op {
		case journal.OpSeqBase:
			next = v.Seq
		case journal.OpCheckpoint:
			seq := next - 1
			if seq >= from && seq <= limit {
				if !emit(Entry{Seq: seq, Rec: v.Record()}) {
					return next, nil
				}
			}
		default:
			if next > limit {
				return next, nil
			}
			if next >= from {
				if !emit(Entry{Seq: next, Rec: v.Record()}) {
					return next + 1, nil
				}
			}
			next++
		}
	}
}
