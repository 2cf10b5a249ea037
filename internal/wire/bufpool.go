package wire

import (
	"encoding/binary"
	"math/bits"
	"net"
	"sync"
	"time"

	"ftnet/internal/obs"
)

// This file is the allocation discipline of the hot path: receive
// buffers come from power-of-two class pools and are reused across
// frames and connections, and outbound frames accumulate in a chunked
// write queue flushed as one net.Buffers writev — a log-round of N
// frames costs one syscall and never re-copies what is already
// encoded, no matter how large the round grows.

// Receive-buffer class bounds. Classes run 4KiB, 8KiB, ... up to
// maxPooledBuf; a buffer above maxPooledBuf (a one-off giant frame,
// anything up to MaxFrame's 16MB) is allocated fresh and dropped on
// the floor afterwards. Pooling those would let a single outlier frame
// pin megabytes inside a sync.Pool until the next GC for every
// connection that ever saw one — the steady state must not pay rent on
// the worst case, so only the small classes recirculate.
const (
	minBufClass  = 12 // 1<<12 = 4KiB, the smallest pooled buffer
	maxBufClass  = 16 // 1<<16 = 64KiB, the largest pooled class
	maxPooledBuf = 1 << maxBufClass
)

// bufPools holds one sync.Pool per power-of-two class. Entries are
// *[]byte, and the header objects themselves recirculate through
// hdrPool: taking the address of a local slice in putBuf would escape
// it (one heap allocation per Put, exactly the rent this file
// exists to stop paying), so headers are pooled alongside the buffers
// they describe.
var (
	bufPools [maxBufClass - minBufClass + 1]sync.Pool
	hdrPool  sync.Pool // spare *[]byte headers (nil payload)
)

// bufClass maps a requested size to its pool index, or -1 when the
// size is above every pooled class.
func bufClass(size int) int {
	if size > maxPooledBuf {
		return -1
	}
	if size <= 1<<minBufClass {
		return 0
	}
	return bits.Len(uint(size-1)) - minBufClass // ceil(log2(size)) class
}

// getBuf returns a zero-length buffer with capacity >= size, drawn
// from the matching class pool when one applies.
func getBuf(size int) []byte {
	c := bufClass(size)
	if c < 0 {
		return make([]byte, 0, size)
	}
	if p, _ := bufPools[c].Get().(*[]byte); p != nil {
		b := (*p)[:0]
		*p = nil
		hdrPool.Put(p)
		return b
	}
	return make([]byte, 0, 1<<(c+minBufClass))
}

// putBuf recycles a buffer into its class pool. Buffers above
// maxPooledBuf — including ones that grew past their class via append
// — are dropped (see the class-bound comment above); undersized or nil
// buffers are dropped too rather than poisoning a class with the wrong
// capacity.
func putBuf(b []byte) {
	c := bufClass(cap(b))
	if c < 0 || cap(b) < 1<<minBufClass || cap(b) != 1<<(c+minBufClass) {
		return
	}
	p, _ := hdrPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	bufPools[c].Put(p)
}

// growRecv returns a receive buffer of exactly size bytes, reusing buf
// when it is large enough and otherwise swapping it for a bigger class
// (the old one goes back to its pool). This is the per-frame read
// path: steady state it never allocates, and a one-off oversized frame
// neither enters nor evicts the pooled classes.
func growRecv(buf []byte, size int) []byte {
	if cap(buf) < size {
		putBuf(buf)
		buf = getBuf(size)
	}
	return buf[:size]
}

// chunkTarget is the sealing threshold of the write queue: once the
// active chunk holds this much it is sealed and a fresh one started,
// so appending another frame never re-copies more than one chunk of
// already-encoded bytes (a contiguous buffer would re-copy the whole
// accumulated round every time append outgrew it).
const chunkTarget = 16 << 10

// writeQueue accumulates encoded frames as a list of pooled chunks and
// hands them to the flusher as a net.Buffers, i.e. one writev. Callers
// append frames under their connection lock; take() transfers
// ownership of everything queued to the flusher in O(chunks).
type writeQueue struct {
	full   [][]byte // sealed chunks, flush order
	active []byte   // the chunk frames are currently encoded into
	queued int      // bytes across full + active
	frames int      // frames across full + active
}

// mark returns the append position for a new frame in the active
// chunk, allocating the first chunk lazily.
func (q *writeQueue) mark() int {
	if q.active == nil {
		q.active = getBuf(chunkTarget)
	}
	return len(q.active)
}

// sealFrameAt finishes the frame started at mark (frame header fill-in
// plus queue accounting) and seals the active chunk once it has
// reached chunkTarget.
func (q *writeQueue) sealFrameAt(buf []byte, mark int) {
	sealFrame(buf, mark)
	q.sealAt(buf, mark)
}

// relay queues one forwarded frame: a head of the forwarder's choosing
// (type, seq), then rest — the original payload past its own head —
// verbatim.
func (q *writeQueue) relay(t MsgType, seq uint64, rest []byte) {
	mark := q.mark()
	buf := append(appendFrameHeader(q.active), VersionShard, byte(t))
	buf = binary.AppendUvarint(buf, seq)
	q.sealFrameAt(append(buf, rest...), mark)
}

// sealAt records bytes a caller appended to the active chunk starting
// at mark — one already-sealed frame, or nothing if the caller rolled
// back — and rotates the chunk once it has reached chunkTarget.
func (q *writeQueue) sealAt(buf []byte, mark int) {
	q.queued += len(buf) - mark
	if len(buf) > mark {
		q.frames++
	}
	if len(buf) >= chunkTarget {
		q.full = append(q.full, buf)
		q.active = nil
	} else {
		q.active = buf
	}
}

// take moves every queued chunk into chunks (reused across flushes)
// and resets the queue, returning the chunk list, the byte total and
// the frame count. The returned slices are owned by the caller until
// it recycles them with recycle().
func (q *writeQueue) take(chunks [][]byte) (_ [][]byte, bytes, frames int) {
	chunks = append(chunks[:0], q.full...)
	if len(q.active) > 0 {
		chunks = append(chunks, q.active)
		q.active = nil
	}
	bytes, frames = q.queued, q.frames
	q.full = q.full[:0]
	q.queued, q.frames = 0, 0
	return chunks, bytes, frames
}

// recycle returns flushed chunks to the class pools. The net.Buffers
// write consumed the vector view, not these slices, so their full
// capacity recirculates.
func recycle(chunks [][]byte) {
	for i, c := range chunks {
		putBuf(c)
		chunks[i] = nil
	}
}

// writeBuffers sends the chunk list as one vectored write. net.Buffers
// uses writev on TCP connections, so the whole log-round leaves in one
// syscall without ever being copied into a contiguous staging buffer;
// on other conns (tests use in-memory pipes) it degrades to sequential
// writes. vecs is a reusable scratch vector; WriteTo consumes the
// net.Buffers it walks — advancing both the outer slice and its
// elements — so it runs on a header copy and the full-capacity scratch
// (entries cleared, they were consumed to empty anyway) is restored to
// *vecs for the next flush.
func writeBuffers(nc net.Conn, vecs *net.Buffers, chunks [][]byte) error {
	scratch := append((*vecs)[:0], chunks...)
	*vecs = scratch
	_, err := vecs.WriteTo(nc)
	for i := range scratch {
		scratch[i] = nil
	}
	*vecs = scratch[:0]
	return err
}

// sender is the send half of a connection that several goroutines
// write to: they append frames to wq under mu, and flush sends
// everything queued as one writev. It is the journal's group-commit
// shape — one flusher at a time writes outside the lock while later
// frames accumulate behind it, and it keeps going until the queue is
// empty, so a frame appended before flush was called is on the wire
// (or the write has failed) without its caller waiting for a turn.
type sender struct {
	nc     net.Conn
	frames *obs.Histogram // frames per writev, when non-nil

	mu       sync.Mutex
	wq       writeQueue
	chunks   [][]byte // the flusher's chunk scratch, reused across flushes
	vecs     net.Buffers
	flushing bool
}

// flush writes what is queued, unless another goroutine is already
// doing so (it will take these frames on its next turn). It returns
// how many frames it took off the queue and the first write error,
// after which the caller fails the connection.
func (s *sender) flush() (frames int, err error) {
	s.mu.Lock()
	if s.flushing {
		s.mu.Unlock()
		return 0, nil
	}
	s.flushing = true
	for err == nil && s.wq.queued > 0 {
		chunks, _, n := s.wq.take(s.chunks)
		s.mu.Unlock()
		err = writeBuffers(s.nc, &s.vecs, chunks)
		recycle(chunks)
		if s.frames != nil {
			s.frames.Observe(time.Duration(n))
		}
		frames += n
		s.mu.Lock()
		s.chunks = chunks
	}
	s.flushing = false
	s.mu.Unlock()
	return frames, err
}
