// Package encoding provides the low-level binary primitives used by the
// sketch serialization formats in this module: unsigned varints (LEB128),
// zigzag-encoded signed varints, and little-endian IEEE 754 doubles.
//
// The format choices mirror what wire-efficient sketch implementations
// use in practice: bucket indexes are small signed integers (zigzag
// varint), counts are doubles (fixed 8 bytes, or varint when integral),
// and lengths are unsigned varints.
package encoding

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Errors returned by the decoding routines.
var (
	// ErrShortBuffer is returned when the input ends in the middle of an
	// encoded value.
	ErrShortBuffer = errors.New("encoding: short buffer")
	// ErrVarintOverflow is returned when a varint does not fit in 64 bits.
	ErrVarintOverflow = errors.New("encoding: varint overflows 64 bits")
)

// MaxVarLen64 is the maximum number of bytes of a varint-encoded uint64.
const MaxVarLen64 = 9

// PutUvarint64 appends v to b as an unsigned varint and returns the
// extended slice.
//
// The encoding differs from encoding/binary in one deliberate way: the
// ninth byte, when present, holds a full 8 bits, so any uint64 fits in at
// most 9 bytes instead of 10. Sketches encode very many small integers,
// and the dense 9-byte tail keeps the worst case compact.
func PutUvarint64(b []byte, v uint64) []byte {
	for i := 0; i < MaxVarLen64-1; i++ {
		if v < 0x80 {
			return append(b, byte(v))
		}
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	// Ninth byte carries the remaining 8 bits verbatim.
	return append(b, byte(v))
}

// Uvarint64 decodes an unsigned varint from b, returning the value and
// the number of bytes consumed.
func Uvarint64(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < MaxVarLen64; i++ {
		if i >= len(b) {
			return 0, 0, ErrShortBuffer
		}
		c := b[i]
		if i == MaxVarLen64-1 {
			// Final byte: all 8 bits are payload.
			v |= uint64(c) << uint(7*i)
			return v, i + 1, nil
		}
		v |= uint64(c&0x7f) << uint(7*i)
		if c < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, ErrVarintOverflow
}

// PutVarint64 appends v to b as a zigzag-encoded signed varint and
// returns the extended slice. Small magnitudes of either sign use few
// bytes, which suits bucket indexes centered near zero.
func PutVarint64(b []byte, v int64) []byte {
	return PutUvarint64(b, zigzag(v))
}

// Varint64 decodes a zigzag-encoded signed varint from b.
func Varint64(b []byte) (int64, int, error) {
	u, n, err := Uvarint64(b)
	if err != nil {
		return 0, 0, err
	}
	return unzigzag(u), n, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// PutFloat64LE appends the little-endian IEEE 754 representation of f.
func PutFloat64LE(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	return append(b,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Float64LE decodes a little-endian IEEE 754 double from b.
func Float64LE(b []byte) (float64, int, error) {
	if len(b) < 8 {
		return 0, 0, ErrShortBuffer
	}
	u := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(u), 8, nil
}

// PutVarfloat64 appends f using a variable-length encoding that is short
// for integral values: the float bits are bit-reversed so that doubles
// holding small integers (the common case for bucket counts) have many
// trailing zeros and varint-encode compactly. Arbitrary doubles round-trip
// exactly in at most 9 bytes.
func PutVarfloat64(b []byte, f float64) []byte {
	return PutUvarint64(b, bits.Reverse64(math.Float64bits(f)))
}

// Varfloat64 decodes a double encoded with PutVarfloat64.
func Varfloat64(b []byte) (float64, int, error) {
	u, n, err := Uvarint64(b)
	if err != nil {
		return 0, 0, err
	}
	return math.Float64frombits(bits.Reverse64(u)), n, nil
}

// UvarintSize reports the number of bytes PutUvarint64 uses for v.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 && n < MaxVarLen64 {
		v >>= 7
		n++
	}
	return n
}

// Writer accumulates an encoded byte stream.
//
// It is a thin convenience over the append-style functions above so that
// encoding code reads linearly.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded stream. The slice aliases the Writer's
// internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a single raw byte.
func (w *Writer) Byte(c byte) { w.buf = append(w.buf, c) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = PutUvarint64(w.buf, v) }

// Varint appends a zigzag signed varint.
func (w *Writer) Varint(v int64) { w.buf = PutVarint64(w.buf, v) }

// Float64 appends a fixed-width little-endian double.
func (w *Writer) Float64(f float64) { w.buf = PutFloat64LE(w.buf, f) }

// Varfloat64 appends a variable-width double.
func (w *Writer) Varfloat64(f float64) { w.buf = PutVarfloat64(w.buf, f) }

// Reader consumes an encoded byte stream.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Byte reads a single raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("reading byte at offset %d: %w", r.off, ErrShortBuffer)
	}
	c := r.buf[r.off]
	r.off++
	return c, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	if len(r.buf)-r.off >= MaxVarLen64 {
		v, n := uvarintFull(r.buf[r.off:])
		r.off += n
		return v, nil
	}
	v, n, err := Uvarint64(r.buf[r.off:])
	if err != nil {
		return 0, fmt.Errorf("reading uvarint at offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() (int64, error) {
	if len(r.buf)-r.off >= MaxVarLen64 {
		u, n := uvarintFull(r.buf[r.off:])
		r.off += n
		return unzigzag(u), nil
	}
	v, n, err := Varint64(r.buf[r.off:])
	if err != nil {
		return 0, fmt.Errorf("reading varint at offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}

// uvarintFull is Uvarint64 for input known to hold MaxVarLen64 bytes,
// where decoding cannot fail. The Reader methods decode in place with
// it whenever that much input remains, which is all but the last few
// values of a stream; near the end they fall back to the checked
// decoders and their errors.
func uvarintFull(b []byte) (uint64, int) {
	b = b[:MaxVarLen64]
	var v uint64
	for i, c := range b[:MaxVarLen64-1] {
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return v | uint64(b[MaxVarLen64-1])<<56, MaxVarLen64
}

// Float64 reads a fixed-width little-endian double.
func (r *Reader) Float64() (float64, error) {
	v, n, err := Float64LE(r.buf[r.off:])
	if err != nil {
		return 0, fmt.Errorf("reading float64 at offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}

// Varfloat64 reads a variable-width double.
func (r *Reader) Varfloat64() (float64, error) {
	if len(r.buf)-r.off >= MaxVarLen64 {
		u, n := uvarintFull(r.buf[r.off:])
		r.off += n
		return math.Float64frombits(bits.Reverse64(u)), nil
	}
	v, n, err := Varfloat64(r.buf[r.off:])
	if err != nil {
		return 0, fmt.Errorf("reading varfloat64 at offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}
