package journal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Op is the kind of state transition a record describes.
type Op byte

// The record kinds. Every accepted Manager transition appends exactly
// one record: instance creation, instance deletion, or an applied
// fault/repair transition (a single event and an atomic batch are both
// one OpTransition — the epoch advances by one either way). Two more
// kinds exist for compaction: OpSeqBase is the metadata record a
// compacted log starts with (it pins the commit sequence number of the
// next ordinary record — and the leadership term in force — so both
// survive the checkpoint-and-truncate swap), and OpCheckpoint captures
// one instance's entire state — spec, epoch, fault set — in a single
// record, which is all the paper's pure-function-of-the-fault-set
// reconfiguration needs to rebuild it bit-identically.
//
// OpTermBump is the leadership fence: a promoted replica commits one
// before accepting writes, and every entry after it belongs to the new
// term. It consumes a commit sequence number like any ordinary record
// (followers must observe it in-stream, in order), and recovery
// verifies the term chain — strictly increasing — the same way it
// verifies the per-instance epoch chain.
//
// OpMigrate is the ownership-handoff record: a daemon that accepts a
// migrated instance commits one, carrying the instance's complete
// state (spec, epoch, fault set — the same shape as OpCheckpoint).
// Unlike OpCheckpoint it consumes a commit sequence number: recovery
// and followers treat it as an ordinary in-stream entry ("this
// instance arrived here with state X"), not as compaction metadata.
const (
	OpCreate     Op = 1
	OpDelete     Op = 2
	OpTransition Op = 3
	OpSeqBase    Op = 4
	OpCheckpoint Op = 5
	OpTermBump   Op = 6
	OpMigrate    Op = 7
)

func (op Op) String() string {
	switch op {
	case OpCreate:
		return "create"
	case OpDelete:
		return "delete"
	case OpTransition:
		return "transition"
	case OpSeqBase:
		return "seqbase"
	case OpCheckpoint:
		return "checkpoint"
	case OpTermBump:
		return "termbump"
	case OpMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("op(%d)", byte(op))
	}
}

// ParseOp is the inverse of Op.String: the op named s. It walks the ops
// (OpMigrate is the last), so String stays the one table of names.
func ParseOp(s string) (Op, error) {
	for op := OpCreate; op <= OpMigrate; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("journal: unknown op %q", s)
}

// Spec mirrors the fleet instance spec without importing the fleet
// package (fleet imports journal, not the other way around). Kind is
// an opaque string to the journal; the fleet layer validates it on
// replay.
type Spec struct {
	Kind string
	M    int
	H    int
	K    int
}

// Record is one journaled transition. ID names the instance; Spec is
// set for OpCreate; Epoch, Applied and Faults are set for OpTransition
// and carry the state *after* the transition — the epoch the accepted
// batch produced, how many events it carried, and the resulting sorted
// fault set (O(k) words, the whole reconfiguration state of the
// paper's Section III-A map).
//
// OpCheckpoint sets Spec, Epoch and Faults together (Applied is
// unused): the instance's complete state in one record, any epoch —
// including 0 for a never-transitioned instance. OpSeqBase sets Seq
// and Term; OpTermBump sets only Term; both use SeqBaseID as their ID
// by convention.
type Record struct {
	Op      Op
	ID      string
	Spec    Spec   // OpCreate and OpCheckpoint
	Epoch   uint64 // OpTransition (first transition is epoch 1) and OpCheckpoint
	Applied int    // OpTransition only; events in the atomic batch
	Faults  []int  // OpTransition and OpCheckpoint; sorted, distinct, non-negative
	Seq     uint64 // OpSeqBase only; commit seq of the next ordinary record
	Term    uint64 // OpTermBump (the new term, >= 1) and OpSeqBase (term in force)
}

// SeqBaseID is the conventional instance-id slot of OpSeqBase and
// OpTermBump records (the codec requires a non-empty ID for every
// record).
const SeqBaseID = "log"

// recordVersion is the payload format version byte. Decoding rejects
// anything else, so a future format change cannot be misparsed.
const recordVersion = 1

// MaxRecordSize bounds a single record's payload. A transition record
// is ~10 bytes of header plus ~1-5 bytes per fault, so this admits
// fault sets far beyond any real spare budget while keeping a corrupt
// length prefix from asking the reader to allocate gigabytes.
const MaxRecordSize = 16 << 20

// AppendRecord appends the canonical payload encoding of rec to dst
// and returns the extended slice. It is the inverse of DecodeRecord:
// for every rec AppendRecord accepts, DecodeRecord(AppendRecord(nil,
// rec)) returns an equal record, and for every payload DecodeRecord
// accepts, AppendRecord reproduces it byte for byte (the encoding is
// canonical: minimal uvarints, strictly ascending delta-coded faults).
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return nil, err
	}
	dst = append(dst, recordVersion, byte(rec.Op))
	dst = appendString(dst, rec.ID)
	switch rec.Op {
	case OpCreate:
		dst = appendSpec(dst, rec.Spec)
	case OpDelete:
	case OpTransition:
		dst = binary.AppendUvarint(dst, rec.Epoch)
		dst = binary.AppendUvarint(dst, uint64(rec.Applied))
		dst = appendFaults(dst, rec.Faults)
	case OpSeqBase:
		dst = binary.AppendUvarint(dst, rec.Seq)
		dst = binary.AppendUvarint(dst, rec.Term)
	case OpCheckpoint, OpMigrate:
		dst = appendSpec(dst, rec.Spec)
		dst = binary.AppendUvarint(dst, rec.Epoch)
		dst = appendFaults(dst, rec.Faults)
	case OpTermBump:
		dst = binary.AppendUvarint(dst, rec.Term)
	}
	return dst, nil
}

func appendSpec(dst []byte, spec Spec) []byte {
	dst = appendString(dst, spec.Kind)
	dst = binary.AppendUvarint(dst, uint64(spec.M))
	dst = binary.AppendUvarint(dst, uint64(spec.H))
	return binary.AppendUvarint(dst, uint64(spec.K))
}

func appendFaults(dst []byte, faults []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(faults)))
	prev := 0
	for i, f := range faults {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(f))
		} else {
			dst = binary.AppendUvarint(dst, uint64(f-prev))
		}
		prev = f
	}
	return dst
}

func (rec Record) validate() error {
	if rec.ID == "" {
		return fmt.Errorf("journal: empty instance id")
	}
	switch rec.Op {
	case OpCreate:
		if rec.Spec.M < 0 || rec.Spec.H < 0 || rec.Spec.K < 0 {
			return fmt.Errorf("journal: negative spec field in %+v", rec.Spec)
		}
	case OpDelete:
	case OpTransition:
		if rec.Epoch == 0 {
			return fmt.Errorf("journal: transition epoch 0 (epoch 0 is creation)")
		}
		if rec.Applied < 1 {
			return fmt.Errorf("journal: transition applied %d < 1", rec.Applied)
		}
		return validateFaults(rec.Faults)
	case OpSeqBase:
		if rec.Seq == 0 {
			return fmt.Errorf("journal: seq base 0 (commit sequence numbers start at 1)")
		}
	case OpCheckpoint, OpMigrate:
		if rec.Spec.M < 0 || rec.Spec.H < 0 || rec.Spec.K < 0 {
			return fmt.Errorf("journal: negative spec field in %+v", rec.Spec)
		}
		return validateFaults(rec.Faults)
	case OpTermBump:
		if rec.Term == 0 {
			return fmt.Errorf("journal: term bump to 0 (terms start at 1)")
		}
	default:
		return fmt.Errorf("journal: unknown op %d", rec.Op)
	}
	return nil
}

func validateFaults(faults []int) error {
	for i, f := range faults {
		if f < 0 {
			return fmt.Errorf("journal: negative fault %d", f)
		}
		if i > 0 && f <= faults[i-1] {
			return fmt.Errorf("journal: fault set not strictly ascending at %d", f)
		}
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// View is one decoded record whose variable-length fields are not
// owned: ID aliases the payload it was decoded from and Faults is a
// slice the view reuses from one decode to the next. It is what
// Reader.Scan fills in place, so a scan that only counts, checks or
// folds records allocates nothing per record; Record makes the owning
// copy for anything that outlives the next decode. The fields mean what
// Record's fields mean.
type View struct {
	Op      Op
	ID      []byte // aliases the decoded payload
	Spec    Spec
	Epoch   uint64
	Applied int
	Faults  []int // reused by the next decode; empty, not nil, for no faults
	Seq     uint64
	Term    uint64
}

// Record returns an owning copy of the view: the id as a string and the
// fault set cloned (nil when empty), safe to keep after the view is
// decoded into again.
func (v *View) Record() Record {
	rec := Record{
		Op:      v.Op,
		ID:      string(v.ID),
		Spec:    v.Spec,
		Epoch:   v.Epoch,
		Applied: v.Applied,
		Seq:     v.Seq,
		Term:    v.Term,
	}
	if len(v.Faults) > 0 {
		rec.Faults = slices.Clone(v.Faults)
	}
	return rec
}

// Cursor is the strict reader the binary codecs share — this package's
// records, the wire plane's frames, the shard package's migration
// stream. Every read is bounds-checked, every uvarint must be minimally
// encoded and every count must fit an int, so the language a codec built
// on it accepts is exactly its canonical encodings: the property
// FuzzJournalDecode, FuzzWireDecode and FuzzMigrationDecode lean on.
// Uvarint, Int and Ints are the core reads; each codec adds the readers
// of its own fields around them.
//
// The values these codecs carry are mostly small, so every read first
// tries the two encodings that cover them: one byte below 0x80, and two
// bytes whose second is 1..127 — the only minimal two-byte forms (a zero
// second byte is the non-minimal padding the general path rejects, one
// of 0x80 or more continues). Those two tests are part of the strictness
// contract, not an exception to it: they accept exactly the one- and
// two-byte inputs the general path accepts, with the same values and
// offsets, and hand it everything else.
type Cursor struct {
	B   []byte
	Off int
}

// Uvarint reads one minimally-encoded uvarint.
func (d *Cursor) Uvarint() (uint64, error) {
	b := d.B[d.Off:]
	if len(b) > 0 && b[0] < 0x80 {
		d.Off++
		return uint64(b[0]), nil
	}
	if len(b) > 1 && b[1]-1 < 0x7f {
		d.Off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, nil
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("journal: truncated or overlong uvarint at offset %d", d.Off)
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for zero): the last
	// byte of a minimal multi-byte uvarint is never zero.
	if n > 1 && d.B[d.Off+n-1] == 0 {
		return 0, fmt.Errorf("journal: non-minimal uvarint at offset %d", d.Off)
	}
	d.Off += n
	return v, nil
}

// Int reads a uvarint that must fit a non-negative int.
func (d *Cursor) Int() (int, error) {
	var v [1]int
	err := d.Ints(v[:])
	return v[0], err
}

// Ints fills dst with len(dst) consecutive Int reads, with Uvarint's two
// fast paths inline in one loop.
func (d *Cursor) Ints(dst []int) error {
	b, off := d.B, d.Off
	for i := range dst {
		if off < len(b) && b[off] < 0x80 {
			dst[i] = int(b[off])
			off++
			continue
		}
		if off+1 < len(b) && b[off+1]-1 < 0x7f {
			dst[i] = int(b[off]&0x7f) | int(b[off+1])<<7
			off += 2
			continue
		}
		d.Off = off
		v, err := d.Uvarint()
		if err != nil {
			return err
		}
		if v > math.MaxInt {
			return fmt.Errorf("journal: value %d overflows int", v)
		}
		dst[i], off = int(v), d.Off
	}
	d.Off = off
	return nil
}

// spec reads the four-field topology spec (kind, m, h, k).
func (d *Cursor) spec() (Spec, error) {
	var spec Spec
	kind, err := d.str()
	if err != nil {
		return Spec{}, err
	}
	spec.Kind = string(kind)
	if spec.M, err = d.Int(); err != nil {
		return Spec{}, err
	}
	if spec.H, err = d.Int(); err != nil {
		return Spec{}, err
	}
	if spec.K, err = d.Int(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// faults reads a delta-coded strictly-ascending fault set into dst's
// backing array, growing it only when the set does not fit.
func (d *Cursor) faults(dst []int) ([]int, error) {
	k, err := d.Int()
	if err != nil {
		return nil, err
	}
	// Each fault costs at least one byte, so a count beyond the
	// remaining payload is corrupt — checked before allocating.
	if k > len(d.B)-d.Off {
		return nil, fmt.Errorf("journal: fault count %d exceeds %d remaining bytes", k, len(d.B)-d.Off)
	}
	faults := slices.Grow(dst[:0], k)[:k]
	if err := d.Ints(faults); err != nil {
		return nil, err
	}
	// The first entry is a fault, every later one a delta from its
	// predecessor: sum them up in place.
	for i := 1; i < k; i++ {
		prev, v := faults[i-1], faults[i]
		if v == 0 {
			return nil, fmt.Errorf("journal: zero fault delta (duplicate fault)")
		}
		if v > math.MaxInt-prev {
			return nil, fmt.Errorf("journal: fault delta %d overflows", v)
		}
		faults[i] = prev + v
	}
	return faults, nil
}

// str reads a length-prefixed string as a sub-slice of the payload.
func (d *Cursor) str() ([]byte, error) {
	n, err := d.Int()
	if err != nil {
		return nil, err
	}
	if n > len(d.B)-d.Off {
		return nil, fmt.Errorf("journal: string length %d exceeds %d remaining bytes", n, len(d.B)-d.Off)
	}
	s := d.B[d.Off : d.Off+n]
	d.Off += n
	return s, nil
}

// DecodeRecord parses one canonical record payload (the framed body,
// without the length/CRC header). It never panics on arbitrary input;
// any deviation from the canonical encoding — unknown version or op,
// non-minimal uvarint, non-ascending fault set, trailing bytes — is an
// error.
func DecodeRecord(b []byte) (Record, error) {
	var v View
	if err := v.decode(b); err != nil {
		return Record{}, err
	}
	return v.Record(), nil
}

// decode is the one record decoder: it parses the canonical payload b
// into v in place — v.ID a sub-slice of b, the faults written into
// v.Faults' backing array — and allocates only for a spec's kind string
// or a fault set larger than any v has held. On error v is unspecified.
func (v *View) decode(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("journal: payload of %d bytes is shorter than the version+op header", len(b))
	}
	if b[0] != recordVersion {
		return fmt.Errorf("journal: unknown record version %d", b[0])
	}
	*v = View{Op: Op(b[1]), Faults: v.Faults[:0]}
	d := Cursor{B: b, Off: 2}
	var err error
	if v.ID, err = d.str(); err != nil {
		return err
	}
	if len(v.ID) == 0 {
		return fmt.Errorf("journal: empty instance id")
	}
	switch v.Op {
	case OpCreate:
		if v.Spec, err = d.spec(); err != nil {
			return err
		}
	case OpDelete:
	case OpTransition:
		if v.Epoch, err = d.Uvarint(); err != nil {
			return err
		}
		if v.Epoch == 0 {
			return fmt.Errorf("journal: transition epoch 0")
		}
		if v.Applied, err = d.Int(); err != nil {
			return err
		}
		if v.Applied < 1 {
			return fmt.Errorf("journal: transition applied %d < 1", v.Applied)
		}
		if v.Faults, err = d.faults(v.Faults); err != nil {
			return err
		}
	case OpSeqBase:
		if v.Seq, err = d.Uvarint(); err != nil {
			return err
		}
		if v.Seq == 0 {
			return fmt.Errorf("journal: seq base 0")
		}
		if v.Term, err = d.Uvarint(); err != nil {
			return err
		}
	case OpCheckpoint, OpMigrate:
		if v.Spec, err = d.spec(); err != nil {
			return err
		}
		if v.Epoch, err = d.Uvarint(); err != nil {
			return err
		}
		if v.Faults, err = d.faults(v.Faults); err != nil {
			return err
		}
	case OpTermBump:
		if v.Term, err = d.Uvarint(); err != nil {
			return err
		}
		if v.Term == 0 {
			return fmt.Errorf("journal: term bump to 0")
		}
	default:
		return fmt.Errorf("journal: unknown op %d", b[1])
	}
	if d.Off != len(b) {
		return fmt.Errorf("journal: %d trailing bytes after record", len(b)-d.Off)
	}
	return nil
}
