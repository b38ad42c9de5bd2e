package ddserver

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/ddsketch-go/ddsketch"
)

// maxIngestBytes bounds the size of one POSTed payload. A DDSketch with
// thousands of buckets encodes to a few tens of kilobytes; a megabyte is
// far beyond any legitimate sketch or value batch.
const maxIngestBytes = 1 << 20

// Request bodies and parsed /values batches are recycled through
// sync.Pools, so a steady stream of POSTs reads and parses without
// allocating. Buffers that grew beyond these caps are dropped instead
// of pooled: one 1 MiB upload must not pin a megabyte per P for the
// life of the process. The caps sit well above a typical body (a
// 500-value batch is ~10 KiB; an agent sketch a few KiB).
const (
	maxPooledBody   = 64 << 10
	maxPooledValues = 8192
)

var (
	bodyBufs  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	valueBufs = sync.Pool{New: func() any { return new([]float64) }}
)

// putBody hands a body buffer back for reuse, or drops it when it
// outgrew the cap. The caller must hold no reference into it afterwards.
func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyBufs.Put(b)
}

// putValues is putBody for parsed /values batches.
func putValues(v *[]float64) {
	if cap(*v) > maxPooledValues {
		return
	}
	*v = (*v)[:0]
	valueBufs.Put(v)
}

// readBody reads a POST body into a pooled buffer, enforcing
// maxIngestBytes through http.MaxBytesReader — which, unlike a bare
// LimitReader, also stops the server from draining the rest of an
// oversized upload. It writes the error response itself and returns
// ok=false when the request is unusable. On success the caller owns the
// buffer and returns it with putBody once nothing references the bytes
// any more.
func readBody(w http.ResponseWriter, r *http.Request) (body *bytes.Buffer, ok bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return nil, false
	}
	body = bodyBufs.Get().(*bytes.Buffer)
	// Presize from Content-Length, plus the bytes.MinRead of spare room
	// ReadFrom wants before its final read, so a typical body is read
	// without growing. The presize stops at the pooling cap: Content-Length
	// is only the client's word, and a client that declares a megabyte
	// and then stalls must not pin one before sending it. Larger bodies
	// grow as their bytes arrive.
	if n := r.ContentLength; n > 0 {
		body.Grow(int(min(n+bytes.MinRead, maxPooledBody)))
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBytes)); err != nil {
		putBody(body)
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("payload exceeds %d bytes", maxIngestBytes))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return body, true
}

// asciiSpace marks the ASCII bytes strings.Fields separates fields on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// separator returns the byte length of the field separator starting at
// b[i], or 0 when b[i] starts a field rune. The separators are exactly
// strings.Fields': the ASCII table above, and beyond ASCII every rune
// unicode.IsSpace accepts (U+0085, U+00A0, U+2000–U+200A, U+3000, …),
// decoded only when a byte ≥ 0x80 is met. Invalid UTF-8 is field
// content, as it is to strings.Fields.
func separator(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	if r, size := utf8.DecodeRune(b[i:]); unicode.IsSpace(r) {
		return size
	}
	return 0
}

// fieldEnd returns the index of the first separator at or after b[i],
// or len(b).
func fieldEnd(b []byte, i int) int {
	for i < len(b) && separator(b, i) == 0 {
		_, size := utf8.DecodeRune(b[i:])
		i += size
	}
	return i
}

// parseValues appends the whitespace-separated values of body to dst,
// accepting and rejecting exactly what strconv.ParseFloat on each
// strings.Fields field would, bit-identically and with the same error
// text, and rejecting NaN and magnitudes above maxIndexable with
// ddsketch.ErrValueOutOfRange. Parsing stops at the first bad field;
// the caller refuses the whole batch.
//
// Each field is read in one pass straight off the bytes. A plain
// decimal whose mantissa is below 2⁵³ and whose power of ten lies in
// [−22, 22] takes Clinger's exact fast path: both operands are exact
// float64s, so one correctly rounded multiply or divide yields the
// correctly rounded value, the first step strconv itself takes. Every
// other field goes whole to strconv.ParseFloat: longer mantissas,
// inf/nan, hex, underscores, junk such as 1e5x, and overflow.
//
// ParseFloat tries the same exact step first, but only after its
// general scanner (signs, bases, underscores, inf/nan) has read the
// field, and that scan is most of its cost. Reading plain decimals here
// skips it for the 39% of full-precision Pareto fields that qualify;
// on global-values that cuts cpu_us_per_write by a fifth against
// calling ParseFloat on every field.
func parseValues(dst []float64, body []byte, maxIndexable float64) ([]float64, error) {
	for i := 0; ; {
		for i < len(body) {
			n := separator(body, i)
			if n == 0 {
				break
			}
			i += n
		}
		if i == len(body) {
			return dst, nil
		}
		start := i
		v, end, exact := scanDecimal(body, i)
		if end < len(body) && separator(body, end) == 0 {
			// Not a plain decimal: the field runs on to the next separator.
			end, exact = fieldEnd(body, end), false
		}
		if !exact {
			var err error
			if v, err = strconv.ParseFloat(string(body[start:end]), 64); err != nil {
				return dst, fmt.Errorf("parsing %q: %w", body[start:end], err)
			}
		}
		if math.IsNaN(v) || math.Abs(v) > maxIndexable {
			return dst, fmt.Errorf("value %q: %w", body[start:end], ddsketch.ErrValueOutOfRange)
		}
		dst = append(dst, v)
		i = end
	}
}

// exactPow10 holds the powers of ten float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanDecimal scans the longest prefix of b[i:] shaped like a decimal,
// [+-]digits[.digits][(e|E)[+-]digits], and returns the index just past
// it. Only ASCII non-separators are consumed. exact reports that the
// prefix is a complete decimal within the fast path's range, and v is
// then its correctly rounded value; otherwise the caller hands the
// field to strconv.
func scanDecimal(b []byte, i int) (v float64, end int, exact bool) {
	neg := false
	if c := b[i]; c == '+' || c == '-' {
		neg = c == '-'
		i++
	}
	// A mantissa past 19 digits may wrap the uint64; such a field is
	// strconv's anyway.
	var mantissa uint64
	digitsStart := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mantissa = mantissa*10 + uint64(b[i]-'0')
	}
	digits, exp10 := i-digitsStart, 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mantissa = mantissa*10 + uint64(b[i]-'0')
		}
		digits += i - fracStart
		exp10 = fracStart - i
	}
	exact = digits > 0 && digits <= 19
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		e, expDigits := 0, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
			expDigits++
		}
		if expNeg {
			e = -e
		}
		exp10 += e
		exact = exact && expDigits > 0
	}
	if !exact || mantissa >= 1<<53 || exp10 < -22 || exp10 > 22 {
		return 0, i, false
	}
	v = float64(mantissa)
	if neg {
		v = -v
	}
	if exp10 >= 0 {
		return v * exactPow10[exp10], i, true
	}
	return v / exactPow10[-exp10], i, true
}
