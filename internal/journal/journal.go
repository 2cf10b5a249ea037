// Package journal is the durable epoch journal of the reconfiguration
// service: an append-only write-ahead log with one length-prefixed,
// CRC32C-framed record per accepted transition. Because the paper's
// reconfiguration map is a pure function of the fault set, a record is
// O(k) — the epoch plus the sorted fault set — so journaling every
// accepted transition stays cheap even at 10^6 hosts.
//
// Frame layout (little-endian):
//
//	[4-byte payload length][4-byte CRC32C of payload][payload]
//
// Writers append frames through a shared buffer with group commit: one
// fsync covers every record buffered before it. A group forms in two
// ways — concurrent appenders that request durability while an fsync
// is in flight wait for the next one and share it, and a single
// appender may buffer several records (AppendAsync) and wait once, for
// the last: the commit round, which is how one connection's burst of
// writes costs one fsync. A caller that waits for each record before
// appending the next gets one fsync per record, however many callers
// there are in turn. Under every policy an acknowledged record has been
// handed to the kernel — the flush is the group-shared part — and the
// fsync policy says what follows: SyncAlways acknowledges nothing before
// the data is on disk, SyncInterval syncs on a timer, SyncNever leaves
// writeback to the OS.
//
// Readers scan frames and treat any malformed suffix — a partial
// header, an implausible length, a CRC mismatch, a non-canonical
// payload — as a torn tail: every complete record before it is kept,
// everything from the tear on is dropped (ErrTorn), and nothing
// corrupted is ever surfaced as a record.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the bytes before each payload: u32 length + u32 CRC32C.
const frameHeaderSize = 8

// SyncPolicy says when appended records must reach stable storage.
type SyncPolicy int

// The fsync policies.
const (
	// SyncAlways fsyncs before Append returns: an acknowledged
	// transition survives a crash. Concurrent appenders share fsyncs
	// via group commit.
	SyncAlways SyncPolicy = iota
	// SyncInterval hands every record to the kernel before Append
	// returns and fsyncs on a timer: a process kill loses nothing
	// acknowledged, a power cut at most the last interval.
	SyncInterval
	// SyncNever hands every record to the kernel before Append returns
	// and fsyncs on Close only: writeback is the OS's problem.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the ftnetd -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf(`journal: unknown fsync policy %q (want "always", "interval" or "never")`, s)
	}
}

// Options configures a Writer.
type Options struct {
	// Sync is the fsync policy (zero value: SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncInterval period (<= 0 selects 50ms).
	Interval time.Duration
	// BufferSize is the write buffer in bytes (<= 0 selects 64 KiB).
	BufferSize int
}

// DefaultSyncInterval is the SyncInterval period used when none is given.
const DefaultSyncInterval = 50 * time.Millisecond

// ErrClosed is returned by appends to a closed writer.
var ErrClosed = errors.New("journal: writer closed")

// syncer is what the underlying writer must implement for fsync to
// mean anything; *os.File does. Buffers and test writers simply flush.
type syncer interface{ Sync() error }

// Stats is a point-in-time snapshot of a writer's counters.
type Stats struct {
	Records   uint64 `json:"records"`    // appended records
	Bytes     uint64 `json:"bytes"`      // appended bytes (frames included)
	Syncs     uint64 `json:"syncs"`      // completed fsync batches
	LastEpoch uint64 `json:"last_epoch"` // epoch of the last appended transition
}

// Writer appends framed records to an underlying stream. All methods
// are safe for concurrent use.
type Writer struct {
	opts Options

	mu     sync.Mutex // guards bw, frame, seq, werr, closed
	w      io.Writer
	bw     *bufio.Writer
	frame  []byte // AppendAsync's encode scratch, reused across records
	f      syncer // non-nil when the stream can fsync
	file   *os.File
	seq    uint64 // records buffered so far
	werr   error  // sticky write/flush/sync error
	closed bool

	// Group-commit state: appenders wait until syncedSeq covers their
	// record; one of them runs the flush (and, under SyncAlways, the
	// fsync) for everyone buffered so far.
	cmu       sync.Mutex
	cond      *sync.Cond
	syncing   bool
	syncedSeq uint64

	stop chan struct{} // interval-sync loop shutdown
	wg   sync.WaitGroup

	records   atomic.Uint64
	bytes     atomic.Uint64
	syncs     atomic.Uint64
	lastEpoch atomic.Uint64
}

// NewWriter wraps an arbitrary stream (durability requires it to
// implement Sync; otherwise fsync degrades to a buffer flush, which is
// exactly right for in-memory journals in tests).
func NewWriter(w io.Writer, opts Options) *Writer {
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	if opts.BufferSize <= 0 {
		opts.BufferSize = 64 << 10
	}
	jw := &Writer{opts: opts, w: w, bw: bufio.NewWriterSize(w, opts.BufferSize)}
	jw.cond = sync.NewCond(&jw.cmu)
	if s, ok := w.(syncer); ok {
		jw.f = s
	}
	if opts.Sync == SyncInterval {
		jw.stop = make(chan struct{})
		jw.wg.Add(1)
		go jw.syncLoop()
	}
	return jw
}

// Create opens (or creates) the journal file in append-only mode. The
// caller is expected to have recovered and truncated any torn tail
// first (Manager.RecoverFile does both), or fresh appends would land
// after the garbage.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	w := NewWriter(f, opts)
	w.file = f
	return w, nil
}

func (w *Writer) syncLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Sync()
		}
	}
}

// Append encodes rec, writes one frame, and returns only after the
// record has been handed to the kernel — under SyncAlways, only after it
// is on stable storage. A non-nil return
// means the record must not be considered durable; after a write error
// the writer is poisoned and every later Append fails, so a journaled
// instance cannot silently diverge from its log.
func (w *Writer) Append(rec Record) error {
	seq, err := w.AppendAsync(rec)
	if err != nil {
		return err
	}
	return w.WaitDurable(seq)
}

// AppendAsync encodes rec and buffers its frame, returning the
// writer-local record number (1-based) without waiting for durability.
// It exists for the commit pipeline, which buffers under its ordering
// lock and then waits for durability outside it — so concurrent
// committers still share fsyncs via group commit. Pair every
// successful AppendAsync with a WaitDurable before acknowledging.
//
// The frame is built in the writer's own scratch buffer under w.mu and
// copied once, into the write buffer: no allocation per record. (The
// commit pipeline already serializes its appends, so encoding inside
// the lock costs it nothing.)
func (w *Writer) AppendAsync(rec Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.werr != nil {
		return 0, w.werr
	}
	frame, err := AppendRecord(append(w.frame[:0], make([]byte, frameHeaderSize)...), rec)
	if err != nil {
		return 0, err // a record that does not encode never touched the stream
	}
	w.frame = frame[:0]
	body := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	if _, err := w.bw.Write(frame); err != nil {
		w.werr = err
		return 0, err
	}
	w.seq++
	w.records.Add(1)
	w.bytes.Add(uint64(len(frame)))
	if rec.Op == OpTransition {
		w.lastEpoch.Store(rec.Epoch)
	}
	return w.seq, nil
}

// Path returns the journal file path when the writer was opened with
// Create, and "" for writers over arbitrary streams.
func (w *Writer) Path() string {
	if w.file != nil {
		return w.file.Name()
	}
	return ""
}

// Reopen closes the writer and returns a fresh one appending to the
// same path under the same options — what a compaction needs once it
// has swapped a new file into place. The counters carry on from where
// this writer's stopped: they count the journal's life, not one file's.
func (w *Writer) Reopen() (*Writer, error) {
	// What Close says is dropped: the file this writer holds is no
	// longer the journal, so whether its tail reached it changes nothing.
	_ = w.Close()
	nw, err := Create(w.Path(), w.opts)
	if err != nil {
		return nil, err
	}
	st := w.Stats()
	nw.records.Store(st.Records)
	nw.bytes.Store(st.Bytes)
	nw.syncs.Store(st.Syncs)
	nw.lastEpoch.Store(st.LastEpoch)
	return nw, nil
}

// WaitDurable blocks until the record AppendAsync numbered seq has left
// the process: flushed to the kernel under every policy, so an
// acknowledged record survives a kill of this process, and fsynced first
// under SyncAlways. The caller runs the round itself if no one else is —
// the group-commit core: all appenders buffered while one round runs are
// covered by the next single one (one write, one fsync).
func (w *Writer) WaitDurable(seq uint64) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for {
		// Durability first: once a round covered this record it succeeded,
		// full stop — a later append poisoning the writer must not turn
		// into a spurious failure for a record already written.
		if w.syncedSeq >= seq {
			return nil
		}
		// Not yet durable and the writer is poisoned: no future round can
		// cover us, so fail (also breaks every waiter out of the loop).
		w.mu.Lock()
		err := w.werr
		w.mu.Unlock()
		if err != nil {
			return err
		}
		if !w.syncing {
			w.syncing = true
			w.cmu.Unlock()
			upto, serr := w.flushAndSync(w.opts.Sync == SyncAlways)
			w.cmu.Lock()
			w.syncing = false
			if serr == nil && upto > w.syncedSeq {
				w.syncedSeq = upto
			}
			w.cond.Broadcast()
			continue
		}
		// A sync is in flight; it may predate our record, in which case
		// we loop and run the next one ourselves.
		w.cond.Wait()
	}
}

// flushAndSync flushes the buffer and, when fsync says so, fsyncs the
// file, reporting the record sequence the pass covers.
func (w *Writer) flushAndSync(fsync bool) (uint64, error) {
	w.mu.Lock()
	upto := w.seq
	err := w.werr
	if err == nil {
		err = w.bw.Flush()
		if err != nil {
			w.werr = err
		}
	}
	w.mu.Unlock()
	if err != nil || !fsync {
		return upto, err
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.mu.Lock()
			w.werr = err
			w.mu.Unlock()
			return 0, err
		}
	}
	w.syncs.Add(1)
	return upto, nil
}

// Sync flushes and fsyncs regardless of policy.
func (w *Writer) Sync() error {
	_, err := w.flushAndSync(true)
	return err
}

// Close flushes, fsyncs, stops the interval loop, and closes the file
// if the writer opened it. Further appends return ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		w.wg.Wait()
	}
	_, err := w.flushAndSync(true)
	if w.file != nil {
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns the writer's counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Records:   w.records.Load(),
		Bytes:     w.bytes.Load(),
		Syncs:     w.syncs.Load(),
		LastEpoch: w.lastEpoch.Load(),
	}
}
