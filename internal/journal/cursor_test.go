package journal

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refUvarint is the rule Cursor's reads must implement, written from
// scratch without its fast paths: binary.Uvarint, and a multi-byte
// encoding's last byte non-zero. ok is false for anything Uvarint must
// reject; next is the offset after the value.
func refUvarint(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 || n > 1 && b[off+n-1] == 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// TestCursorAgreesWithReference walks every input of up to 3 bytes —
// each shorter one is a longer one cut short — at the end of a buffer,
// behind a byte already read, so each read meets the end of the buffer
// at every position. Uvarint, Int and a one-element Ints must each match
// the reference in value, offset and accept/reject.
func TestCursorAgreesWithReference(t *testing.T) {
	buf := make([]byte, 4)
	for size := 0; size <= 3; size++ {
		b := buf[:1+size]
		for x := 0; x < 1<<(8*size); x++ {
			for i := 0; i < size; i++ {
				b[1+i] = byte(x >> (8 * i))
			}
			want, next, ok := refUvarint(b, 1)
			u := Cursor{B: b, Off: 1}
			if got, err := u.Uvarint(); (err == nil) != ok || ok && (got != want || u.Off != next) {
				t.Fatalf("Uvarint(%x) = %d, off %d, %v; reference %d, off %d, ok %v", b[1:], got, u.Off, err, want, next, ok)
			}
			okInt := ok && want <= math.MaxInt
			c := Cursor{B: b, Off: 1}
			if got, err := c.Int(); (err == nil) != okInt || okInt && (uint64(got) != want || c.Off != next) {
				t.Fatalf("Int(%x) = %d, off %d, %v; reference %d, off %d, ok %v", b[1:], got, c.Off, err, want, next, okInt)
			}
			var one [1]int
			v := Cursor{B: b, Off: 1}
			if err := v.Ints(one[:]); (err == nil) != okInt || okInt && (uint64(one[0]) != want || v.Off != next) {
				t.Fatalf("Ints(%x) = %d, off %d, %v; reference %d, off %d, ok %v", b[1:], one[0], v.Off, err, want, next, okInt)
			}
		}
	}
}

// TestCursorIntsIsRepeatedInt pins the vector read to the scalar one on
// runs that mix every encoding length with the malformed ones — a
// non-minimal zero, a value past MaxInt, a truncated tail: for every
// prefix count, Ints fills what n Int reads return, ends at the same
// offset and fails with the same error.
func TestCursorIntsIsRepeatedInt(t *testing.T) {
	tokens := [][]byte{
		{0x00}, {0x7f}, {0x80, 0x01}, {0xff, 0x7f}, {0x80, 0x80, 0x01},
		{0xff, 0xff, 0xff, 0x7f}, binary.AppendUvarint(nil, math.MaxInt),
		{0x80, 0x00}, {0xff, 0x00}, binary.AppendUvarint(nil, math.MaxInt+1),
		{0x80}, {0xff, 0xff},
	}
	rng := rand.New(rand.NewSource(29))
	for run := 0; run < 5000; run++ {
		var b []byte
		for n := rng.Intn(40); n > 0; n-- {
			tok := tokens[rng.Intn(4)] // mostly well-formed short values
			if rng.Intn(4) == 0 {
				tok = tokens[rng.Intn(len(tokens))]
			}
			b = append(b, tok...)
		}
		for n := 0; n <= len(b)+1; n++ {
			want := make([]int, n)
			c := Cursor{B: b}
			var werr error
			for i := range want {
				if want[i], werr = c.Int(); werr != nil {
					break
				}
			}
			got := make([]int, n)
			v := Cursor{B: b}
			gerr := v.Ints(got)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("%x, %d values: Ints says %v, repeated Int says %v", b, n, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if v.Off != c.Off {
				t.Fatalf("%x, %d values: Ints ends at %d, repeated Int at %d", b, n, v.Off, c.Off)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%x, %d values: Ints = %v, repeated Int = %v", b, n, got, want)
				}
			}
		}
	}
}
