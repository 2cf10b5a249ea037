package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrTorn marks the point where a journal stops being well-formed: a
// partial frame header, an implausible length, a payload cut short, a
// CRC mismatch, or a non-canonical record body. Everything before the
// tear decoded cleanly and is trustworthy; everything from it on is
// dropped. Recovery treats a torn tail as the expected signature of a
// crash mid-append — logged, truncated, never accepted.
var ErrTorn = errors.New("journal: torn or corrupt tail")

// Reader scans framed records from a stream. It is strictly
// prefix-preserving: Scan and Next return records until the first
// malformed byte, then an error wrapping ErrTorn (or io.EOF when the
// stream ends exactly on a frame boundary), and Offset reports how many
// bytes of complete, CRC-verified records were consumed — the
// truncation point that makes the file clean again.
type Reader struct {
	br      *bufio.Reader
	off     int64  // end of the last complete record
	err     error  // sticky terminal state
	pending int    // bytes of the last frame still to discard from br
	spill   []byte // grow-only body buffer for frames larger than br
	view    View   // Next's scratch view
}

// readerBufferSize is the scan window: a frame that fits is decoded
// where bufio holds it, with no copy. Transition records are tens of
// bytes; only a checkpoint of a very large fault set exceeds it and
// takes the spill buffer instead.
const readerBufferSize = 64 << 10

// NewReader wraps r for record scanning.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readerBufferSize)}
}

// Offset returns the byte offset just past the last complete record.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next record as an owning copy. It returns io.EOF at
// a clean end of stream and an error wrapping ErrTorn for any malformed
// tail; it never returns a record that failed the CRC or canonical
// decode.
func (r *Reader) Next() (Record, error) {
	if err := r.Scan(&r.view); err != nil {
		return Record{}, err
	}
	return r.view.Record(), nil
}

// Scan decodes the next record into v in place, with Next's errors and
// Next's guarantees, and allocates nothing for a transition record:
// v.ID points into the reader's buffer and v.Faults is v's own slice,
// overwritten. Both are valid only until the next Scan or Next on this
// reader; v.Record() copies what must outlive that. On error v is
// unspecified.
func (r *Reader) Scan(v *View) error {
	if r.err != nil {
		return r.err
	}
	if err := r.scan(v); err != nil {
		r.err = err
		return err
	}
	return nil
}

func (r *Reader) scan(v *View) error {
	// The previous frame was decoded where bufio holds it; it is given
	// up only now, so the view handed out stayed intact until this call.
	if _, err := r.br.Discard(r.pending); err != nil {
		return err
	}
	r.pending = 0
	hdr, err := r.br.Peek(frameHeaderSize)
	if err != nil {
		switch {
		case err != io.EOF:
			return err
		case len(hdr) == 0:
			return io.EOF
		}
		return fmt.Errorf("%w: %d-byte partial frame header at offset %d", ErrTorn, len(hdr), r.off)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxRecordSize {
		return fmt.Errorf("%w: implausible record length %d at offset %d", ErrTorn, length, r.off)
	}
	body, err := r.body(int(length))
	if err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: record at offset %d cut short of %d bytes", ErrTorn, r.off, length)
	}
	if err != nil {
		return err
	}
	if got := crc32.Checksum(body, castagnoli); got != want {
		return fmt.Errorf("%w: CRC mismatch at offset %d (stored %08x, computed %08x)", ErrTorn, r.off, want, got)
	}
	if err := v.decode(body); err != nil {
		return fmt.Errorf("%w: undecodable record at offset %d: %v", ErrTorn, r.off, err)
	}
	r.off += int64(frameHeaderSize) + int64(length)
	return nil
}

// body returns the n-byte body of the frame whose header was just
// peeked: in place when the whole frame fits the buffer (left for the
// next scan to discard), through the spill buffer otherwise. A stream
// that ends first is io.ErrUnexpectedEOF.
func (r *Reader) body(n int) ([]byte, error) {
	if frame := frameHeaderSize + n; frame <= r.br.Size() {
		b, err := r.br.Peek(frame)
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		r.pending = frame
		return b[frameHeaderSize:], nil
	}
	r.br.Discard(frameHeaderSize) // buffered by the header Peek: cannot fail
	if n > cap(r.spill) {
		r.spill = make([]byte, n)
	}
	_, err := io.ReadFull(r.br, r.spill[:n])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return r.spill[:n], err
}

// ReadAll scans every complete record from r. The returned offset is
// the end of the valid prefix. err is nil on a clean end of stream and
// wraps ErrTorn when a malformed tail was dropped; the records and
// offset are valid either way.
func ReadAll(r io.Reader) (recs []Record, offset int64, err error) {
	jr := NewReader(r)
	for {
		rec, err := jr.Next()
		if err == io.EOF {
			return recs, jr.Offset(), nil
		}
		if err != nil {
			return recs, jr.Offset(), err
		}
		recs = append(recs, rec)
	}
}
