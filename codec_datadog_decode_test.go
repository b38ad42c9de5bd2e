package ddsketch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/store"
)

// referenceDDBin is a checked (index, count) pair the reference decoder
// collects before it builds a store.
type referenceDDBin struct {
	index int
	count float64
}

// referenceDDDecodeStore is the DataDog store decoder that
// ddDecodeStore replaced: it copies contiguous runs into a growing
// []float64 and every bin into a growing []referenceDDBin. Together
// with referenceDDBuildStore it is the oracle FuzzDataDogStoreDecode
// holds the size-once decoder to.
func referenceDDDecodeStore(body []byte, dst []referenceDDBin, indexOffset int) ([]referenceDDBin, error) {
	r := &ddReader{data: body}
	var (
		contiguous       []float64
		contiguousOffset int32
	)
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, err
		}
		switch {
		case num == ddStoreFieldBinCounts && wire == ddWireBytes:
			entry, err := r.bytes()
			if err != nil {
				return nil, err
			}
			index, count, err := ddDecodeMapEntry(entry)
			if err != nil {
				return nil, err
			}
			if err := ddCheckCount(count); err != nil {
				return nil, err
			}
			if count > 0 {
				dst = append(dst, referenceDDBin{int(index) - indexOffset, count})
			}
		case num == ddStoreFieldContiguousCounts && wire == ddWireBytes:
			packed, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if len(packed)%8 != 0 {
				return nil, fmt.Errorf("packed double run of %d bytes (need multiple of 8)", len(packed))
			}
			if len(contiguous)+len(packed)/8 > ddMaxIndexSpan {
				return nil, fmt.Errorf("contiguous run of %d bins exceeds span limit %d",
					len(contiguous)+len(packed)/8, ddMaxIndexSpan)
			}
			for i := 0; i+8 <= len(packed); i += 8 {
				bits := uint64(packed[i]) | uint64(packed[i+1])<<8 | uint64(packed[i+2])<<16 |
					uint64(packed[i+3])<<24 | uint64(packed[i+4])<<32 | uint64(packed[i+5])<<40 |
					uint64(packed[i+6])<<48 | uint64(packed[i+7])<<56
				count := math.Float64frombits(bits)
				if err := ddCheckCount(count); err != nil {
					return nil, err
				}
				contiguous = append(contiguous, count)
			}
		case num == ddStoreFieldContiguousOffset && wire == ddWireVarint:
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if contiguousOffset, err = ddUnzigzag32(u); err != nil {
				return nil, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	for i, count := range contiguous {
		if count > 0 {
			dst = append(dst, referenceDDBin{int(contiguousOffset) + i - indexOffset, count})
		}
	}
	return dst, nil
}

// referenceDDBuildStore checks the collected bins' range and adds them
// one by one to a DenseStore, which regrows as they arrive.
func referenceDDBuildStore(bins []referenceDDBin) (store.Store, error) {
	st := store.NewDenseStore()
	if len(bins) == 0 {
		return st, nil
	}
	lo, hi := bins[0].index, bins[0].index
	for _, b := range bins[1:] {
		if b.index < lo {
			lo = b.index
		}
		if b.index > hi {
			hi = b.index
		}
	}
	if lo < -ddMaxIndexOffset || hi > ddMaxIndexOffset {
		return nil, fmt.Errorf("bucket index out of range [%d, %d]", lo, hi)
	}
	if hi-lo > ddMaxIndexSpan {
		return nil, fmt.Errorf("index span [%d, %d] too wide", lo, hi)
	}
	for _, b := range bins {
		st.AddWithCount(b.index, b.count)
	}
	return st, nil
}

// ddStoreMessage assembles a Store message from raw fields, including
// layouts no encoder here emits: several runs, the offset after the
// runs, map entries beside a run.
type ddStoreMessage []byte

func (m ddStoreMessage) entry(index int32, count float64) ddStoreMessage {
	e := ddAppendTag(nil, 1, ddWireVarint)
	e = ddAppendUvarint(e, ddZigzag32(index))
	e = ddAppendDouble(e, 2, count)
	return ddAppendBytes(m, ddStoreFieldBinCounts, e)
}

func (m ddStoreMessage) run(counts ...float64) ddStoreMessage {
	var packed []byte
	for _, c := range counts {
		packed = append(packed, ddAppendDouble(nil, 1, c)[1:]...)
	}
	return ddAppendBytes(m, ddStoreFieldContiguousCounts, packed)
}

func (m ddStoreMessage) offset(index int32) ddStoreMessage {
	m = ddAppendTag(m, ddStoreFieldContiguousOffset, ddWireVarint)
	return ddAppendUvarint(m, ddZigzag32(index))
}

// FuzzDataDogStoreDecode holds the size-once DataDog store decoder
// (ddDecodeStore over every body, then ddBuildStore) to the decoder it
// replaced, on one side's store split over two arbitrary bodies and an
// arbitrary mapping index offset: the same accept or reject, the same
// error text, and on acceptance the same ForEach bins and TotalCount
// bits. Both always build an unbounded DenseStore, which has no collapse
// state or bin limit to compare.
func FuzzDataDogStoreDecode(f *testing.F) {
	for i, values := range [][]float64{
		datagen.SpanSeeded(1000, 1),
		datagen.ParetoSeeded(50, 2),
		{1, 1e3, 1e6, 1e9},
	} {
		sk, err := NewCollapsing(0.01, 2048)
		if err != nil {
			f.Fatal(err)
		}
		if err := sk.AddBatch(values); err != nil {
			f.Fatal(err)
		}
		body, err := ddEncodeStore(sk.positive)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, []byte(nil), int64(i))
		f.Add(body[:len(body)/2], body[len(body)/2:], int64(0))
	}
	var m ddStoreMessage
	f.Add([]byte(m.run(1, 0, 2.5).offset(-3)), []byte(m.offset(7).run(0.1, 0.2)), int64(0))
	f.Add([]byte(m.run(1, 2).run(3).offset(10).entry(11, 0.5).entry(11, 0.25).entry(-4, 0)), []byte(nil), int64(5))
	f.Add([]byte(m.entry(0, 1).entry(ddMaxIndexSpan+1, 1)), []byte(nil), int64(0))
	f.Add([]byte(m.entry(2, 1)), []byte(m.entry(3, math.NaN())), int64(0))
	f.Add([]byte(m.run(1, -1)), []byte(nil), int64(0))
	f.Add([]byte(m.entry(1, 1)), []byte(nil), int64(ddMaxIndexOffset))
	f.Add([]byte{0x12, 0x03, 0, 0, 0}, []byte(nil), int64(0))
	f.Add([]byte{0x0a, 0xff}, []byte{0x18}, int64(-1))
	f.Fuzz(func(t *testing.T, a, b []byte, offset int64) {
		indexOffset := int(offset % (ddMaxIndexOffset + 1))
		bodies := [][]byte{a, b}

		var rng ddRange
		var got store.Store
		var err error
		for _, body := range bodies {
			if err = ddDecodeStore(body, indexOffset, rng.include); err != nil {
				break
			}
		}
		if err == nil {
			got, err = ddBuildStore(bodies, indexOffset, rng)
		}

		var bins []referenceDDBin
		var want store.Store
		var refErr error
		for _, body := range bodies {
			if bins, refErr = referenceDDDecodeStore(body, bins, indexOffset); refErr != nil {
				break
			}
		}
		if refErr == nil {
			want, refErr = referenceDDBuildStore(bins)
		}

		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("decode error %q, reference error %q", err, refErr)
			}
			return
		}
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("built %T, reference %T", got, want)
		}
		if g, w := storeBits(got), storeBits(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("bins differ:\n got %v\nwant %v", g, w)
		}
		if g, w := math.Float64bits(got.TotalCount()), math.Float64bits(want.TotalCount()); g != w {
			t.Fatalf("TotalCount %v, reference %v", got.TotalCount(), want.TotalCount())
		}
	})
}

// storeBits lists a store's bins as (index, count bits) pairs.
func storeBits(s store.Store) [][2]uint64 {
	var out [][2]uint64
	s.ForEach(func(index int, count float64) bool {
		out = append(out, [2]uint64{uint64(index), math.Float64bits(count)})
		return true
	})
	return out
}
