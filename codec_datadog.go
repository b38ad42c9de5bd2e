package ddsketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/ddsketch-go/ddsketch/mapping"
	"github.com/ddsketch-go/ddsketch/store"
)

// This file implements the DataDog sketches-go proto3 wire format as a
// Codec, hand-rolled on the proto wire grammar so the module stays
// dependency-free. The schema (sketches-go pb/ddsketch.proto):
//
//	message DDSketch {
//	  IndexMapping mapping        = 1;  // len-delimited
//	  Store        positiveValues = 2;  // len-delimited
//	  Store        negativeValues = 3;  // len-delimited
//	  double       zeroCount      = 4;  // fixed64
//	}
//	message IndexMapping {
//	  double        gamma         = 1;  // fixed64
//	  double        indexOffset   = 2;  // fixed64
//	  Interpolation interpolation = 3;  // varint: NONE 0, LINEAR 1,
//	                                    //   QUADRATIC 2, CUBIC 3
//	}
//	message Store {
//	  map<sint32, double> binCounts               = 1;  // len-delimited entries
//	  repeated double     contiguousBinCounts     = 2 [packed = true];
//	  sint32              contiguousBinIndexOffset = 3;  // varint (zigzag)
//	}
//
// The interpolation enum maps one-to-one onto this module's four
// mappings: NONE ↔ LogarithmicMapping, LINEAR/QUADRATIC/CUBIC ↔ the
// interpolated mappings of the same degree.
//
// Lossiness rules (normative; docs/WIRE_FORMAT.md §DataDog):
//
//   - Uniform-collapse lineage flattens on export: only the *current*
//     (coarsened) γ is written, so a decoded sketch has collapse epoch
//     0, no uniform bin budget, and a freshly constructed mapping at
//     that γ. Bin counts and indexes are preserved exactly; quantile
//     estimates stay within the coarsened accuracy α' = (γ−1)/(γ+1).
//   - min/max/sum are not representable in the schema. Decoding
//     reconstructs min and max from the extreme buckets'
//     α-accurate representative values and sum as Σ count·Value(index),
//     so each is within the relative accuracy of the exact statistic.
//   - Store types flatten: both stores decode as unbounded DenseStores
//     regardless of the encoder's store policy (the span limit below
//     bounds memory instead).
//   - DataDog's reference mapping rounds log_γ to the nearest index
//     where this module takes the ceiling, so foreign payloads may
//     place values one bucket away from where this module would —
//     still within the γ-bucket relative-error guarantee. A non-zero
//     integral indexOffset is folded into the bin indexes; a
//     non-integral one is rejected.
const (
	ddFieldMapping   = 1
	ddFieldPositive  = 2
	ddFieldNegative  = 3
	ddFieldZeroCount = 4

	ddMappingFieldGamma         = 1
	ddMappingFieldIndexOffset   = 2
	ddMappingFieldInterpolation = 3

	ddStoreFieldBinCounts        = 1
	ddStoreFieldContiguousCounts = 2
	ddStoreFieldContiguousOffset = 3

	ddInterpolationNone      = 0
	ddInterpolationLinear    = 1
	ddInterpolationQuadratic = 2
	ddInterpolationCubic     = 3

	// Proto wire types. Groups (3, 4) are obsolete and rejected.
	ddWireVarint  = 0
	ddWireFixed64 = 1
	ddWireBytes   = 2
	ddWireFixed32 = 5

	// ddMaxIndexSpan bounds the index spread a decoded store may claim,
	// mirroring the native store decoder's limit: a hostile payload can
	// declare two distant sparse bins in a handful of bytes, and the
	// DenseStore the decoder builds allocates the full span.
	ddMaxIndexSpan = 1 << 22
	// ddMaxIndexOffset bounds the mapping-level indexOffset (and with
	// it the shifted bin indexes), mirroring the native decoder's
	// per-index magnitude limit.
	ddMaxIndexOffset = 1 << 40
)

// dataDogCodec implements Codec for the sketches-go proto3 format.
type dataDogCodec struct{}

// DataDogCodec is the proto3 wire format of DataDog's reference
// DDSketch implementation (sketches-go), the interchange format real
// DataDog agents emit. Encoding is deterministic (fields in schema
// order, bins in ascending index order) so identical sketches encode to
// identical bytes; decoding accepts any field order and skips unknown
// fields. See the lossiness rules above and docs/WIRE_FORMAT.md.
var DataDogCodec Codec = dataDogCodec{}

func (dataDogCodec) Name() string        { return "datadog" }
func (dataDogCodec) ContentType() string { return "application/x-protobuf" }

// Sniff accepts payloads opening with a tag byte the DDSketch message
// can legally start with: field 1–3 len-delimited (0x0a, 0x12, 0x1a) or
// field 4 fixed64 (0x21). All four are disjoint from the native magic's
// leading 'D' (0x44).
func (dataDogCodec) Sniff(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	switch data[0] {
	case 0x0a, 0x12, 0x1a, 0x21:
		return true
	}
	return false
}

// --- proto wire-format primitives -----------------------------------
//
// These are the standard proto base-128 varints (up to 10 bytes for a
// uint64), deliberately distinct from the encoding package's 9-byte
// scheme used by the native format.

func ddAppendTag(b []byte, field, wire int) []byte {
	return binary.AppendUvarint(b, uint64(field)<<3|uint64(wire))
}

func ddAppendDouble(b []byte, field int, v float64) []byte {
	b = ddAppendTag(b, field, ddWireFixed64)
	bits := math.Float64bits(v)
	return append(b,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

func ddAppendBytes(b []byte, field int, sub []byte) []byte {
	b = ddAppendTag(b, field, ddWireBytes)
	b = binary.AppendUvarint(b, uint64(len(sub)))
	return append(b, sub...)
}

// ddZigzag32 encodes a signed index as proto sint32.
func ddZigzag32(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

// ddUnzigzag32 decodes a proto sint32 varint payload. Values beyond 32
// bits are rejected: no conforming encoder emits them for a sint32.
func ddUnzigzag32(u uint64) (int32, error) {
	if u > math.MaxUint32 {
		return 0, fmt.Errorf("sint32 varint %d overflows 32 bits", u)
	}
	v := uint32(u)
	return int32(v>>1) ^ -int32(v&1), nil
}

// ddReader is a cursor over a proto message body. All reads bound-check
// against the slice, so truncated or hostile payloads fail with an
// error, never a panic or an oversized allocation.
type ddReader struct {
	data []byte
	pos  int
}

func (r *ddReader) done() bool { return r.pos >= len(r.data) }

// uvarint reads a base-128 varint. binary.Uvarint reports n == 0 when
// the input ends first, which with ten or more bytes left means ten
// bytes that all continue, and n < 0 for a varint that does not fit a
// uint64: -(MaxVarintLen64+1) when it runs past ten bytes, otherwise a
// 10th byte contributing more than the top bit.
func (r *ddReader) uvarint() (uint64, error) {
	rest := r.data[r.pos:]
	v, n := binary.Uvarint(rest)
	switch {
	case n == 0 && len(rest) < binary.MaxVarintLen64:
		return 0, fmt.Errorf("truncated varint")
	case n == 0 || n == -(binary.MaxVarintLen64+1):
		return 0, fmt.Errorf("varint longer than 10 bytes")
	case n < 0:
		return 0, fmt.Errorf("varint overflows uint64")
	}
	r.pos += n
	return v, nil
}

func (r *ddReader) fixed64() (uint64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, fmt.Errorf("truncated fixed64")
	}
	b := r.data[r.pos:]
	r.pos += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

func (r *ddReader) double() (float64, error) {
	bits, err := r.fixed64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// bytes reads a length-delimited field body. The declared length is
// validated against the remaining input before any slicing.
func (r *ddReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.data)-r.pos)
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// field reads the next field tag. Group wire types are rejected — the
// schema never uses them, and skipping them needs unbounded recursion.
func (r *ddReader) field() (num, wire int, err error) {
	tag, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	num, wire = int(tag>>3), int(tag&7)
	if num == 0 {
		return 0, 0, fmt.Errorf("field number 0")
	}
	switch wire {
	case ddWireVarint, ddWireFixed64, ddWireBytes, ddWireFixed32:
		return num, wire, nil
	default:
		return 0, 0, fmt.Errorf("unsupported wire type %d (field %d)", wire, num)
	}
}

// skip discards an unknown field's payload, preserving forward
// compatibility with schema additions.
func (r *ddReader) skip(wire int) error {
	switch wire {
	case ddWireVarint:
		_, err := r.uvarint()
		return err
	case ddWireFixed64:
		_, err := r.fixed64()
		return err
	case ddWireBytes:
		_, err := r.bytes()
		return err
	case ddWireFixed32:
		if len(r.data)-r.pos < 4 {
			return fmt.Errorf("truncated fixed32")
		}
		r.pos += 4
		return nil
	}
	return fmt.Errorf("unsupported wire type %d", wire)
}

// --- encoding ---------------------------------------------------------

// Encode serializes the sketch as a sketches-go DDSketch message.
// Output is deterministic: fields in schema order, bins ascending.
func (dataDogCodec) Encode(s *DDSketch) ([]byte, error) {
	mappingMsg, err := ddEncodeMapping(s.mapping)
	if err != nil {
		return nil, err
	}
	positive, err := ddEncodeStore(s.positive)
	if err != nil {
		return nil, fmt.Errorf("ddsketch: datadog codec: positive store: %w", err)
	}
	negative, err := ddEncodeStore(s.negative)
	if err != nil {
		return nil, fmt.Errorf("ddsketch: datadog codec: negative store: %w", err)
	}
	out := make([]byte, 0, len(mappingMsg)+len(positive)+len(negative)+16)
	out = ddAppendBytes(out, ddFieldMapping, mappingMsg)
	if len(positive) > 0 {
		out = ddAppendBytes(out, ddFieldPositive, positive)
	}
	if len(negative) > 0 {
		out = ddAppendBytes(out, ddFieldNegative, negative)
	}
	if s.zeroCount != 0 {
		out = ddAppendDouble(out, ddFieldZeroCount, s.zeroCount)
	}
	return out, nil
}

// ddEncodeMapping builds the IndexMapping message. The *current* γ is
// written — for a uniform-collapsed sketch that is the coarsened γ, and
// the collapse lineage is deliberately not representable (the
// documented flattening lossiness). indexOffset is always 0 for
// sketches this module built, so the field is omitted (proto3 default).
func ddEncodeMapping(m mapping.IndexMapping) ([]byte, error) {
	var interpolation int
	switch m.(type) {
	case *mapping.LogarithmicMapping:
		interpolation = ddInterpolationNone
	case *mapping.LinearlyInterpolatedMapping:
		interpolation = ddInterpolationLinear
	case *mapping.QuadraticallyInterpolatedMapping:
		interpolation = ddInterpolationQuadratic
	case *mapping.CubicallyInterpolatedMapping:
		interpolation = ddInterpolationCubic
	default:
		return nil, fmt.Errorf("ddsketch: datadog codec: unsupported mapping %v", m)
	}
	msg := ddAppendDouble(nil, ddMappingFieldGamma, m.Gamma())
	if interpolation != ddInterpolationNone {
		msg = ddAppendTag(msg, ddMappingFieldInterpolation, ddWireVarint)
		msg = binary.AppendUvarint(msg, uint64(interpolation))
	}
	return msg, nil
}

// ddEncodeStore builds a Store message, or nil for an empty store. The
// denser of the two schema encodings is chosen deterministically:
// contiguousBinCounts (8 bytes per array slot) when the occupied span
// is at most twice the bin count, sparse binCounts map entries (13–17
// bytes per bin) otherwise. Bins are emitted in ascending index order
// either way, so equal stores encode to equal bytes regardless of the
// backing store type.
func ddEncodeStore(st store.Store) ([]byte, error) {
	type bin struct {
		index int
		count float64
	}
	var bins []bin
	st.ForEach(func(index int, count float64) bool {
		bins = append(bins, bin{index, count})
		return true
	})
	if len(bins) == 0 {
		return nil, nil
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].index < bins[j].index })
	lo, hi := bins[0].index, bins[len(bins)-1].index
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return nil, fmt.Errorf("bin index range [%d, %d] overflows sint32", lo, hi)
	}
	span := hi - lo + 1
	if span <= 2*len(bins) {
		// Contiguous: packed doubles indexed from contiguousBinIndexOffset.
		packed := make([]byte, 0, 8*span)
		next := 0
		for i := lo; i <= hi; i++ {
			c := 0.0
			if next < len(bins) && bins[next].index == i {
				c = bins[next].count
				next++
			}
			bits := math.Float64bits(c)
			packed = append(packed,
				byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
				byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
		}
		msg := ddAppendBytes(nil, ddStoreFieldContiguousCounts, packed)
		msg = ddAppendTag(msg, ddStoreFieldContiguousOffset, ddWireVarint)
		msg = binary.AppendUvarint(msg, ddZigzag32(int32(lo)))
		return msg, nil
	}
	// Sparse: one map entry per bin, ascending.
	var msg []byte
	for _, b := range bins {
		entry := ddAppendTag(nil, 1, ddWireVarint)
		entry = binary.AppendUvarint(entry, ddZigzag32(int32(b.index)))
		entry = ddAppendDouble(entry, 2, b.count)
		msg = ddAppendBytes(msg, ddStoreFieldBinCounts, entry)
	}
	return msg, nil
}

// --- decoding ---------------------------------------------------------

// Decode reconstructs a sketch from a sketches-go DDSketch message.
// Malformed, truncated, or hostile payloads fail with an error wrapping
// ErrInvalidEncoding; valid payloads from any conforming encoder are
// accepted regardless of field order or encoding choice.
func (dataDogCodec) Decode(data []byte) (*DDSketch, error) {
	r := &ddReader{data: data}
	var (
		m              mapping.IndexMapping
		indexOffset    int
		positiveRange  ddRange
		negativeRange  ddRange
		zeroCount      float64
		sawMapping     bool
		positiveFields [][]byte
		negativeFields [][]byte
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
		}
		switch {
		case num == ddFieldMapping && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("%w: datadog: mapping: %v", ErrInvalidEncoding, err)
			}
			m, indexOffset, err = ddDecodeMapping(body)
			if err != nil {
				return nil, fmt.Errorf("%w: datadog: mapping: %v", ErrInvalidEncoding, err)
			}
			sawMapping = true
		case num == ddFieldPositive && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("%w: datadog: positive store: %v", ErrInvalidEncoding, err)
			}
			positiveFields = append(positiveFields, body)
		case num == ddFieldNegative && wire == ddWireBytes:
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("%w: datadog: negative store: %v", ErrInvalidEncoding, err)
			}
			negativeFields = append(negativeFields, body)
		case num == ddFieldZeroCount && wire == ddWireFixed64:
			v, err := r.double()
			if err != nil {
				return nil, fmt.Errorf("%w: datadog: zero count: %v", ErrInvalidEncoding, err)
			}
			zeroCount = v
		default:
			if err := r.skip(wire); err != nil {
				return nil, fmt.Errorf("%w: datadog: field %d: %v", ErrInvalidEncoding, num, err)
			}
		}
	}
	if !sawMapping {
		return nil, fmt.Errorf("%w: datadog: payload carries no index mapping", ErrInvalidEncoding)
	}
	if math.IsNaN(zeroCount) || math.IsInf(zeroCount, 0) || zeroCount < 0 {
		return nil, fmt.Errorf("%w: datadog: zero count %v", ErrInvalidEncoding, zeroCount)
	}
	// Non-contiguous encoders may split a store across repeated fields;
	// proto semantics merge them, so bins accumulate across bodies. Every
	// body is checked, and each side's index range found, before either
	// store is allocated.
	for _, body := range positiveFields {
		if err := ddDecodeStore(body, indexOffset, positiveRange.include); err != nil {
			return nil, fmt.Errorf("%w: datadog: positive store: %v", ErrInvalidEncoding, err)
		}
	}
	for _, body := range negativeFields {
		if err := ddDecodeStore(body, indexOffset, negativeRange.include); err != nil {
			return nil, fmt.Errorf("%w: datadog: negative store: %v", ErrInvalidEncoding, err)
		}
	}
	positive, err := ddBuildStore(positiveFields, indexOffset, positiveRange)
	if err != nil {
		return nil, fmt.Errorf("%w: datadog: positive store: %v", ErrInvalidEncoding, err)
	}
	negative, err := ddBuildStore(negativeFields, indexOffset, negativeRange)
	if err != nil {
		return nil, fmt.Errorf("%w: datadog: negative store: %v", ErrInvalidEncoding, err)
	}
	s := &DDSketch{
		mapping:   m,
		positive:  positive,
		negative:  negative,
		zeroCount: zeroCount,
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
	if err := ddReconstructStatistics(s); err != nil {
		return nil, err
	}
	return s, nil
}

// ddDecodeMapping parses an IndexMapping message into one of the four
// mappings plus the integral index offset to fold into bin indexes.
func ddDecodeMapping(body []byte) (mapping.IndexMapping, int, error) {
	r := &ddReader{data: body}
	var (
		gamma         float64
		offset        float64
		interpolation uint64
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, 0, err
		}
		switch {
		case num == ddMappingFieldGamma && wire == ddWireFixed64:
			if gamma, err = r.double(); err != nil {
				return nil, 0, err
			}
		case num == ddMappingFieldIndexOffset && wire == ddWireFixed64:
			if offset, err = r.double(); err != nil {
				return nil, 0, err
			}
		case num == ddMappingFieldInterpolation && wire == ddWireVarint:
			if interpolation, err = r.uvarint(); err != nil {
				return nil, 0, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return nil, 0, err
			}
		}
	}
	if math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma <= 1 {
		return nil, 0, fmt.Errorf("gamma %v out of range (need finite > 1)", gamma)
	}
	// This module's mappings have no index offset; an integral offset is
	// equivalent to shifting every bin index, so it is folded in below.
	// A fractional offset shifts bucket *boundaries* and has no lossless
	// translation, so it is rejected rather than silently mis-binned.
	if offset != math.Trunc(offset) || math.IsNaN(offset) ||
		offset > ddMaxIndexOffset || offset < -ddMaxIndexOffset {
		return nil, 0, fmt.Errorf("index offset %v unsupported (need integral, |offset| ≤ 2^40)", offset)
	}
	alpha := (gamma - 1) / (gamma + 1)
	var (
		m   mapping.IndexMapping
		err error
	)
	switch interpolation {
	case ddInterpolationNone:
		m, err = mapping.NewLogarithmic(alpha)
	case ddInterpolationLinear:
		m, err = mapping.NewLinearlyInterpolated(alpha)
	case ddInterpolationQuadratic:
		m, err = mapping.NewQuadraticallyInterpolated(alpha)
	case ddInterpolationCubic:
		m, err = mapping.NewCubicallyInterpolated(alpha)
	default:
		return nil, 0, fmt.Errorf("unknown interpolation %d", interpolation)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("gamma %v: %v", gamma, err)
	}
	return m, int(offset), nil
}

// ddWalkStore checks one Store message body and passes its bins, their
// indexes shifted by -indexOffset: each map entry with a positive count
// to entry, in message order, then each contiguousBinCounts field to
// run, with the index of its first slot. Counts must be finite and
// non-negative; zero counts are skipped (proto3 encoders emit them only
// as contiguous-run padding), and a run may hold some. Repeated
// contiguousBinCounts fields concatenate into one run (proto
// packed-repeated semantics), and the run's contiguousBinIndexOffset
// may appear anywhere in the message, so the run's fields are passed
// once the whole message is checked. The body is walked once and
// nothing is copied out of it.
func ddWalkStore(body []byte, indexOffset int, entry func(index int, count float64), run func(index int, packed []byte)) error {
	r := ddReader{data: body}
	var (
		runBuf           [2][]byte // a run is one field, unless split
		runs             = runBuf[:0]
		runLen           int
		contiguousOffset int32
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return err
		}
		switch {
		case num == ddStoreFieldBinCounts && wire == ddWireBytes:
			e, err := r.bytes()
			if err != nil {
				return err
			}
			index, count, err := ddDecodeMapEntry(e)
			if err != nil {
				return err
			}
			if err := ddCheckCount(count); err != nil {
				return err
			}
			if count > 0 {
				entry(int(index)-indexOffset, count)
			}
		case num == ddStoreFieldContiguousCounts && wire == ddWireBytes:
			packed, err := r.bytes()
			if err != nil {
				return err
			}
			if len(packed)%8 != 0 {
				return fmt.Errorf("packed double run of %d bytes (need multiple of 8)", len(packed))
			}
			if runLen+len(packed)/8 > ddMaxIndexSpan {
				return fmt.Errorf("contiguous run of %d bins exceeds span limit %d",
					runLen+len(packed)/8, ddMaxIndexSpan)
			}
			for i := 0; i < len(packed); i += 8 {
				if err := ddCheckCount(ddPackedDouble(packed[i:])); err != nil {
					return err
				}
			}
			runs = append(runs, packed)
			runLen += len(packed) / 8
		case num == ddStoreFieldContiguousOffset && wire == ddWireVarint:
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			if contiguousOffset, err = ddUnzigzag32(u); err != nil {
				return err
			}
		default:
			if err := r.skip(wire); err != nil {
				return err
			}
		}
	}
	index := int(contiguousOffset) - indexOffset
	for _, packed := range runs {
		run(index, packed)
		index += len(packed) / 8
	}
	return nil
}

// ddDecodeStore checks one Store message body, the first of the two
// walks decoding takes, and passes include the index range of each map
// entry and each contiguousBinCounts field holding a positive count.
func ddDecodeStore(body []byte, indexOffset int, include func(lo, hi int)) error {
	return ddWalkStore(body, indexOffset,
		func(index int, _ float64) { include(index, index) },
		func(index int, packed []byte) {
			first, last := 0, len(packed)-8
			for first <= last && !(ddPackedDouble(packed[first:]) > 0) {
				first += 8
			}
			for last > first && !(ddPackedDouble(packed[last:]) > 0) {
				last -= 8
			}
			if first <= last {
				include(index+first/8, index+last/8)
			}
		})
}

// ddPackedDouble reads the little-endian double at the start of b.
func ddPackedDouble(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// ddDecodeMapEntry parses one binCounts map entry: {sint32 key = 1,
// double value = 2}. Proto map entries may omit either field (zero
// default) and the decoder accepts any order.
func ddDecodeMapEntry(entry []byte) (int32, float64, error) {
	r := &ddReader{data: entry}
	var (
		key   int32
		value float64
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case num == 1 && wire == ddWireVarint:
			u, err := r.uvarint()
			if err != nil {
				return 0, 0, err
			}
			if key, err = ddUnzigzag32(u); err != nil {
				return 0, 0, err
			}
		case num == 2 && wire == ddWireFixed64:
			if value, err = r.double(); err != nil {
				return 0, 0, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return key, value, nil
}

// ddCheckCount rejects the count values no encoder legitimately emits:
// NaN, infinities and negative counts fail both comparisons. The call
// inlines; only a rejection pays for the error.
func ddCheckCount(count float64) error {
	if count >= 0 && count <= math.MaxFloat64 {
		return nil
	}
	return ddBadCount(count)
}

func ddBadCount(count float64) error {
	return fmt.Errorf("bin count %v (need finite ≥ 0)", count)
}

// ddRange is the index range of the bins one side's store bodies hold.
type ddRange struct {
	lo, hi int
	any    bool
}

func (r *ddRange) include(lo, hi int) {
	if !r.any {
		r.lo, r.hi, r.any = lo, hi, true
		return
	}
	r.lo, r.hi = min(r.lo, lo), max(r.hi, hi)
}

// ddBuildStore checks the overall shape of one side's bins, whose
// bodies ddDecodeStore has already accepted, and builds the DenseStore
// — checks first and the array sized once for the whole range, so a
// hostile payload cannot force a huge allocation before being rejected
// and a valid one never regrows the array as its bins are added. Each
// body is then walked a second time to fill the store, its map entries
// first and its run after, as ddWalkStore passes them.
func ddBuildStore(bodies [][]byte, indexOffset int, rng ddRange) (store.Store, error) {
	st := store.NewDenseStore()
	if !rng.any {
		return st, nil
	}
	if rng.lo < -ddMaxIndexOffset || rng.hi > ddMaxIndexOffset {
		return nil, fmt.Errorf("bucket index out of range [%d, %d]", rng.lo, rng.hi)
	}
	if rng.hi-rng.lo > ddMaxIndexSpan {
		return nil, fmt.Errorf("index span [%d, %d] too wide", rng.lo, rng.hi)
	}
	store.Reserve(st, rng.lo, rng.hi)
	// Runs reach the store through a stack buffer of doubles, a chunk
	// at a time, so that every chunk is one array-to-array add.
	var chunk [256]float64
	fill := func(index int, packed []byte) {
		for len(packed) > 0 {
			n := min(len(packed)/8, len(chunk))
			for i := range chunk[:n] {
				chunk[i] = ddPackedDouble(packed[8*i:])
			}
			st.AddRun(index, chunk[:n])
			index, packed = index+n, packed[8*n:]
		}
	}
	for _, body := range bodies {
		if err := ddWalkStore(body, indexOffset, st.AddWithCount, fill); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ddReconstructStatistics fills in the statistics the DataDog schema
// cannot carry: min and max from the extreme buckets' representative
// values, sum as Σ count·Value(index). Each is within the mapping's
// relative accuracy of the exact statistic — which keeps every
// quantile estimate of the decoded sketch within α, since the
// statistics only participate as the output clamp. Non-finite
// reconstructions (buckets beyond the mapping's indexable range) are
// rejected, mirroring the native decoder's hostile-statistics checks.
func ddReconstructStatistics(s *DDSketch) error {
	m := s.mapping
	sum := 0.0
	s.positive.ForEach(func(index int, count float64) bool {
		sum += count * m.Value(index)
		return true
	})
	s.negative.ForEach(func(index int, count float64) bool {
		sum -= count * m.Value(index)
		return true
	})
	if s.zeroCount+s.positive.TotalCount()+s.negative.TotalCount() > 0 {
		// min: most negative value first, then zero, then smallest positive.
		switch {
		case s.negative.TotalCount() > 0:
			maxIdx, err := s.negative.MaxIndex()
			if err != nil {
				return fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
			}
			s.min = -m.Value(maxIdx)
		case s.zeroCount > 0:
			s.min = 0
		default:
			minIdx, err := s.positive.MinIndex()
			if err != nil {
				return fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
			}
			s.min = m.Value(minIdx)
		}
		switch {
		case s.positive.TotalCount() > 0:
			maxIdx, err := s.positive.MaxIndex()
			if err != nil {
				return fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
			}
			s.max = m.Value(maxIdx)
		case s.zeroCount > 0:
			s.max = 0
		default:
			minIdx, err := s.negative.MinIndex()
			if err != nil {
				return fmt.Errorf("%w: datadog: %v", ErrInvalidEncoding, err)
			}
			s.max = -m.Value(minIdx)
		}
		if math.IsNaN(sum) || math.IsInf(sum, 0) ||
			math.IsNaN(s.min) || math.IsInf(s.min, 0) ||
			math.IsNaN(s.max) || math.IsInf(s.max, 0) || s.min > s.max {
			return fmt.Errorf("%w: datadog: unreconstructable statistics (min %v, max %v, sum %v)",
				ErrInvalidEncoding, s.min, s.max, sum)
		}
	}
	s.sum = sum
	return nil
}
