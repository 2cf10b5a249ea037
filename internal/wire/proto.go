// Package wire is the binary RPC plane of the reconfiguration service:
// a length-prefixed, CRC-framed protocol over persistent TCP
// connections for the operations millions of clients would actually
// hammer — Lookup, LookupBatch and ApplyBatch — at a small fraction of
// the HTTP/JSON plane's cost.
//
// Frame layout (identical to the journal's record framing):
//
//	[u32 payload len LE][u32 CRC32C(payload) LE][payload]
//
// Payloads reuse the journal codec's canonical discipline: a version
// byte, strictly minimal uvarints, counts validated against the
// remaining bytes before any allocation, and no trailing bytes — the
// accepted language is exactly the canonical encodings, the property
// FuzzWireDecode pins. Requests carry a client-chosen sequence number;
// responses echo it, so a client can pipeline many requests down one
// connection and complete them out of order. The server reads every
// request already queued on a connection before writing, coalescing
// the responses into one flush — the paper's log-round batching idea
// (amortize fixed per-exchange cost over whole combined batches)
// applied to request pipelining.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ftnet/internal/fleet"
	"ftnet/internal/journal"
)

// VersionShard is the payload format version byte, the one version the
// plane speaks: the sharding-aware revision, whose responses may carry
// StatusWrongShard and an owner hint. Decoding rejects anything else —
// version 1, the pre-sharding revision, included — and a peer that
// sends it is hung up on like any other that breaks the grammar.
const VersionShard = 2

// frameHeaderSize is the length + CRC32C prefix of every frame.
const frameHeaderSize = 8

// MaxFrame bounds a single frame's payload, keeping a corrupt length
// prefix from asking either side to allocate gigabytes. A LookupBatch
// of a million entries is ~3 MB, comfortably inside.
const MaxFrame = 16 << 20

// castagnoli is the CRC32C table (the journal's checksum, hardware
// accelerated on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MsgType identifies the operation a frame carries. Responses echo the
// request's type.
type MsgType byte

// The operations of the RPC plane.
const (
	MsgLookup      MsgType = 1 // x -> (phi, epoch)
	MsgLookupBatch MsgType = 2 // xs -> (phis, epoch), one frame each way
	MsgApplyBatch  MsgType = 3 // fault/repair burst -> epoch
)

func (t MsgType) String() string {
	switch t {
	case MsgLookup:
		return "lookup"
	case MsgLookupBatch:
		return "lookup_batch"
	case MsgApplyBatch:
		return "apply_batch"
	default:
		return fmt.Sprintf("msg(%d)", byte(t))
	}
}

// Status is the typed result code of a response, mirroring the fleet
// error categories (and the HTTP plane's status mapping).
type Status byte

// The response status codes. StatusBudget is checked before
// StatusConflict on the encode side because fleet.ErrBudget wraps
// fleet.ErrConflict.
const (
	StatusOK          Status = 0
	StatusNotFound    Status = 1 // unknown instance (HTTP 404)
	StatusConflict    Status = 2 // double fault / repair healthy (HTTP 409)
	StatusBudget      Status = 3 // spare budget exhausted (HTTP 409 subcategory)
	StatusUnavailable Status = 4 // journal/commit failure, nothing applied (HTTP 503)
	StatusInvalid     Status = 5 // bad input: node out of range, empty batch (HTTP 400)
	StatusReadOnly    Status = 6 // follower posture: mutations come from the leader (HTTP 403)
	StatusStaleTerm   Status = 7 // leadership term fence: the writer was deposed (HTTP 403)
	StatusWrongShard  Status = 8 // instance owned by another daemon; response carries its URL (HTTP 403)
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusConflict:
		return "conflict"
	case StatusBudget:
		return "budget exhausted"
	case StatusUnavailable:
		return "unavailable"
	case StatusInvalid:
		return "invalid"
	case StatusReadOnly:
		return "read-only"
	case StatusStaleTerm:
		return "stale term"
	case StatusWrongShard:
		return "wrong shard"
	default:
		return fmt.Sprintf("status(%d)", byte(s))
	}
}

// Request is one decoded request payload. X is set for MsgLookup, Xs
// for MsgLookupBatch, Events for MsgApplyBatch. Version is the
// protocol version the payload carries (decode sets it; a zero
// Version encodes as VersionShard, the current one).
type Request struct {
	Version byte
	Type    MsgType
	Seq     uint64
	ID      string
	X       int
	Xs      []int
	Events  []fleet.Event
}

// Response is one decoded response payload. Status selects which
// fields are meaningful: Msg accompanies every non-OK status; an OK
// Lookup carries Phi+Epoch, an OK LookupBatch carries Phis+Epoch, an
// OK ApplyBatch carries Result. Version is the protocol version the
// payload carries (a zero Version encodes as VersionShard).
type Response struct {
	Version byte
	Type    MsgType
	Seq     uint64
	Status  Status
	Msg     string
	Owner   string // StatusWrongShard only: the owning daemon's advertised URL
	Phi     int
	Epoch   uint64
	Phis    []int
	Result  fleet.EventResult
}

// checkVersion accepts the version a message to be encoded may name:
// the current one, or zero, which stands for it.
func checkVersion(v byte) error {
	if v != 0 && v != VersionShard {
		return fmt.Errorf("wire: unknown version %d", v)
	}
	return nil
}

// AppendRequest appends the canonical payload encoding of req to dst.
// It is the inverse of DecodeRequest: for every req it accepts,
// DecodeRequest(AppendRequest(nil, req)) returns an equal request, and
// for every payload DecodeRequest accepts, AppendRequest reproduces it
// byte for byte.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if req.ID == "" {
		return nil, fmt.Errorf("wire: empty instance id")
	}
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	dst = append(dst, VersionShard, byte(req.Type))
	dst = binary.AppendUvarint(dst, req.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(req.ID)))
	dst = append(dst, req.ID...)
	switch req.Type {
	case MsgLookup:
		if req.X < 0 {
			return nil, fmt.Errorf("wire: negative lookup target %d", req.X)
		}
		dst = binary.AppendUvarint(dst, uint64(req.X))
	case MsgLookupBatch:
		dst = binary.AppendUvarint(dst, uint64(len(req.Xs)))
		for _, x := range req.Xs {
			if x < 0 {
				return nil, fmt.Errorf("wire: negative lookup target %d", x)
			}
			dst = binary.AppendUvarint(dst, uint64(x))
		}
	case MsgApplyBatch:
		dst = binary.AppendUvarint(dst, uint64(len(req.Events)))
		for _, ev := range req.Events {
			k, ok := eventKindByte(ev.Kind)
			if !ok {
				return nil, fmt.Errorf("wire: unknown event kind %q", ev.Kind)
			}
			if ev.Node < 0 {
				return nil, fmt.Errorf("wire: negative event node %d", ev.Node)
			}
			dst = append(dst, k)
			dst = binary.AppendUvarint(dst, uint64(ev.Node))
		}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", req.Type)
	}
	return dst, nil
}

// DecodeRequest parses one canonical request payload. It never panics
// on arbitrary input; any deviation from the canonical encoding is an
// error.
func DecodeRequest(b []byte) (Request, error) {
	var req Request
	h, err := walkRequest(b, &req)
	if err != nil {
		return Request{}, err
	}
	req.ID = string(h.id)
	return req, nil
}

// reqHead is what every request carries ahead of its body, parsed in
// place: id aliases the payload, and rest is the offset just past the
// seq varint — everything from there on is what a relay forwards
// verbatim under a sequence number of its own.
type reqHead struct {
	t    MsgType
	seq  uint64
	id   []byte
	rest int
}

// walkRequest is the request grammar. It checks a whole payload
// against the canonical encoding and, when into is non-nil, stores
// what it reads there, reusing the capacity of into.Xs and into.Events
// (the id is left to the caller: only DecodeRequest wants a copy).
// DecodeRequest, the server and the proxy all decode through it, so
// there is no payload one of them accepts and another rejects. A nil
// into validates without allocating.
func walkRequest(b []byte, into *Request) (reqHead, error) {
	if len(b) < 2 {
		return reqHead{}, fmt.Errorf("wire: request payload of %d bytes is shorter than the header", len(b))
	}
	if b[0] != VersionShard {
		return reqHead{}, fmt.Errorf("wire: unknown version %d", b[0])
	}
	var scratch Request
	store := into != nil
	if !store {
		into = &scratch
	}
	h := reqHead{t: MsgType(b[1])}
	d := cursorAt(b, 2)
	var err error
	if h.seq, err = d.Uvarint(); err != nil {
		return h, err
	}
	h.rest = d.Off
	if h.id, err = d.bytesVal(); err != nil {
		return h, err
	}
	if len(h.id) == 0 {
		return h, fmt.Errorf("wire: empty instance id")
	}
	into.Version, into.Type, into.Seq = VersionShard, h.t, h.seq
	switch h.t {
	case MsgLookup:
		if into.X, err = d.Int(); err != nil {
			return h, err
		}
	case MsgLookupBatch:
		if into.Xs, err = d.ints(into.Xs, store); err != nil {
			return h, err
		}
	case MsgApplyBatch:
		n, err := d.count()
		if err != nil {
			return h, err
		}
		if store {
			into.Events = sized(into.Events, n)
		}
		for i := 0; i < n; i++ {
			ev, err := d.event()
			if err != nil {
				return h, err
			}
			if store {
				into.Events[i] = ev
			}
		}
	default:
		return h, fmt.Errorf("wire: unknown message type %d", b[1])
	}
	if !d.done() {
		return h, fmt.Errorf("wire: %d trailing bytes after request", len(b)-d.Off)
	}
	return h, nil
}

// sized returns s with length n, reusing its memory when it has the
// capacity. A nil s with n == 0 stays nil, which is what keeps an
// empty batch decoding to the same value it was encoded from.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendResponse appends the canonical payload encoding of resp to
// dst; the DecodeResponse inverse holds the same way as for requests.
// A non-OK response carries only the message; OK responses carry the
// per-type body. Every numeric field must be representable as a
// non-negative varint.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	if err := checkVersion(resp.Version); err != nil {
		return nil, err
	}
	dst = append(dst, VersionShard, byte(resp.Type))
	dst = binary.AppendUvarint(dst, resp.Seq)
	dst = append(dst, byte(resp.Status))
	if resp.Status != StatusOK {
		if resp.Status > StatusWrongShard {
			return nil, fmt.Errorf("wire: unknown status %d", resp.Status)
		}
		dst = binary.AppendUvarint(dst, uint64(len(resp.Msg)))
		dst = append(dst, resp.Msg...)
		// The owner hint rides only on wrong-shard rejections.
		if resp.Status == StatusWrongShard {
			dst = binary.AppendUvarint(dst, uint64(len(resp.Owner)))
			dst = append(dst, resp.Owner...)
		} else if resp.Owner != "" {
			return nil, fmt.Errorf("wire: owner hint on status %v", resp.Status)
		}
		return dst, nil
	}
	switch resp.Type {
	case MsgLookup:
		if resp.Phi < 0 {
			return nil, fmt.Errorf("wire: negative phi %d", resp.Phi)
		}
		dst = binary.AppendUvarint(dst, uint64(resp.Phi))
		dst = binary.AppendUvarint(dst, resp.Epoch)
	case MsgLookupBatch:
		dst = binary.AppendUvarint(dst, resp.Epoch)
		dst = binary.AppendUvarint(dst, uint64(len(resp.Phis)))
		for _, phi := range resp.Phis {
			if phi < 0 {
				return nil, fmt.Errorf("wire: negative phi %d", phi)
			}
			dst = binary.AppendUvarint(dst, uint64(phi))
		}
	case MsgApplyBatch:
		r := resp.Result
		if r.NumFaults < 0 || r.Budget < 0 || r.Applied < 0 {
			return nil, fmt.Errorf("wire: negative apply result field in %+v", r)
		}
		dst = binary.AppendUvarint(dst, r.Epoch)
		dst = binary.AppendUvarint(dst, uint64(r.NumFaults))
		dst = binary.AppendUvarint(dst, uint64(r.Budget))
		dst = binary.AppendUvarint(dst, uint64(r.Applied))
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", resp.Type)
	}
	return dst, nil
}

// DecodeResponse parses one canonical response payload with the same
// never-panics strictness as DecodeRequest.
func DecodeResponse(b []byte) (Response, error) {
	var resp Response
	if _, err := walkResponse(b, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// respHead is what every response carries ahead of its body. rest is
// the offset of the status byte: from there on a relay forwards the
// payload verbatim under the requester's own seq.
type respHead struct {
	t      MsgType
	seq    uint64
	status Status
	rest   int
}

// walkResponse is the response grammar, the twin of walkRequest:
// DecodeResponse, the client and the proxy all decode through it. With
// a non-nil into the fields are stored there, an OK LookupBatch
// reusing the capacity of into.Phis.
func walkResponse(b []byte, into *Response) (respHead, error) {
	if len(b) < 3 {
		return respHead{}, fmt.Errorf("wire: response payload of %d bytes is shorter than the header", len(b))
	}
	if b[0] != VersionShard {
		return respHead{}, fmt.Errorf("wire: unknown version %d", b[0])
	}
	h := respHead{t: MsgType(b[1])}
	if h.t != MsgLookup && h.t != MsgLookupBatch && h.t != MsgApplyBatch {
		return h, fmt.Errorf("wire: unknown message type %d", b[1])
	}
	var scratch Response
	store := into != nil
	if !store {
		into = &scratch
	}
	d := cursorAt(b, 2)
	var err error
	if h.seq, err = d.Uvarint(); err != nil {
		return h, err
	}
	h.rest = d.Off
	st, err := d.byteVal()
	if err != nil {
		return h, err
	}
	h.status = Status(st)
	into.Version, into.Type, into.Seq, into.Status = VersionShard, h.t, h.seq, h.status
	switch {
	case h.status != StatusOK:
		if h.status > StatusWrongShard {
			return h, fmt.Errorf("wire: unknown status %d", st)
		}
		msg, err := d.bytesVal()
		if err != nil {
			return h, err
		}
		// The owner hint rides only on wrong-shard rejections.
		var owner []byte
		if h.status == StatusWrongShard {
			if owner, err = d.bytesVal(); err != nil {
				return h, err
			}
		}
		if store {
			into.Msg, into.Owner = string(msg), string(owner)
		}
	case h.t == MsgLookup:
		if into.Phi, err = d.Int(); err != nil {
			return h, err
		}
		if into.Epoch, err = d.Uvarint(); err != nil {
			return h, err
		}
	case h.t == MsgLookupBatch:
		if into.Epoch, err = d.Uvarint(); err != nil {
			return h, err
		}
		if into.Phis, err = d.ints(into.Phis, store); err != nil {
			return h, err
		}
	case h.t == MsgApplyBatch:
		r := &into.Result
		if r.Epoch, err = d.Uvarint(); err != nil {
			return h, err
		}
		if r.NumFaults, err = d.Int(); err != nil {
			return h, err
		}
		if r.Budget, err = d.Int(); err != nil {
			return h, err
		}
		if r.Applied, err = d.Int(); err != nil {
			return h, err
		}
	}
	if !d.done() {
		return h, fmt.Errorf("wire: %d trailing bytes after response", len(b)-d.Off)
	}
	return h, nil
}

func eventKindByte(k fleet.EventKind) (byte, bool) {
	switch k {
	case fleet.EventFault:
		return 0, true
	case fleet.EventRepair:
		return 1, true
	default:
		return 0, false
	}
}

// cursor is journal.Cursor — the strict reader every binary codec here
// shares: bounds-checked, minimal uvarints only — plus the readers of
// this protocol's own fields.
type cursor struct{ journal.Cursor }

func cursorAt(b []byte, off int) cursor { return cursor{journal.Cursor{B: b, Off: off}} }

// count reads an element count; each element costs at least one byte,
// so a count beyond the remaining payload is corrupt — checked before
// the caller allocates.
func (d *cursor) count() (int, error) {
	n, err := d.Int()
	if err != nil {
		return 0, err
	}
	if n > len(d.B)-d.Off {
		return 0, fmt.Errorf("wire: count %d exceeds %d remaining bytes", n, len(d.B)-d.Off)
	}
	return n, nil
}

// ints reads a counted vector of Ints into dst's memory (see sized) or,
// when store is false, only checks it, a stack chunk at a time, so a
// validating walk allocates nothing.
func (d *cursor) ints(dst []int, store bool) ([]int, error) {
	n, err := d.count()
	if err != nil {
		return dst, err
	}
	if store {
		dst = sized(dst, n)
		return dst, d.Ints(dst)
	}
	var chunk [32]int
	for n > 0 {
		c := chunk[:min(n, len(chunk))]
		if err := d.Ints(c); err != nil {
			return dst, err
		}
		n -= len(c)
	}
	return dst, nil
}

func (d *cursor) byteVal() (byte, error) {
	if d.Off >= len(d.B) {
		return 0, fmt.Errorf("wire: truncated payload at offset %d", d.Off)
	}
	b := d.B[d.Off]
	d.Off++
	return b, nil
}

// bytesVal reads a length-prefixed byte string as a subslice (no
// copy).
func (d *cursor) bytesVal() ([]byte, error) {
	n, err := d.Int()
	if err != nil {
		return nil, err
	}
	if n > len(d.B)-d.Off {
		return nil, fmt.Errorf("wire: string length %d exceeds %d remaining bytes", n, len(d.B)-d.Off)
	}
	b := d.B[d.Off : d.Off+n]
	d.Off += n
	return b, nil
}

// event reads one (kind, node) pair.
func (d *cursor) event() (fleet.Event, error) {
	k, err := d.byteVal()
	if err != nil {
		return fleet.Event{}, err
	}
	var kind fleet.EventKind
	switch k {
	case 0:
		kind = fleet.EventFault
	case 1:
		kind = fleet.EventRepair
	default:
		return fleet.Event{}, fmt.Errorf("wire: unknown event kind byte %d", k)
	}
	node, err := d.Int()
	if err != nil {
		return fleet.Event{}, err
	}
	return fleet.Event{Kind: kind, Node: node}, nil
}

func (d *cursor) done() bool { return d.Off == len(d.B) }

// appendFrameHeader reserves the 8-byte frame header; sealFrame fills
// it in once the payload is appended after it.
func appendFrameHeader(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealFrame stamps the length and CRC32C of the payload that was
// appended after the header reserved at mark.
func sealFrame(buf []byte, mark int) {
	payload := buf[mark+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[mark:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[mark+4:], crc32.Checksum(payload, castagnoli))
}

// readFrame reads one frame from br and returns its payload once the
// length is within MaxFrame and the CRC32C matches. The payload lives
// in *buf, a pooled class buffer grown as needed and reused by the
// next call, so it is only valid until then.
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	br.Discard(frameHeaderSize)
	*buf = growRecv(*buf, int(size))
	if _, err := io.ReadFull(br, *buf); err != nil {
		return nil, err
	}
	if crc32.Checksum(*buf, castagnoli) != want {
		return nil, errors.New("wire: frame CRC mismatch")
	}
	return *buf, nil
}

// frameBuffered reports whether br already holds a complete frame, so
// that reading it cannot block. This is the test every reader applies
// before it keeps coalescing: a partial frame does not count, because
// the rest of it may be a long time coming and whatever is queued for
// writing would wait with it.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeaderSize {
		return false
	}
	hdr, _ := br.Peek(frameHeaderSize)
	return br.Buffered()-frameHeaderSize >= int(binary.LittleEndian.Uint32(hdr))
}
