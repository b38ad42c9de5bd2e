package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ddsketch-go/ddsketch/encoding"
)

// referenceDecodeBins is the one-pass bin decoder that decodeBins
// replaced: it checks each bin and adds it to the store straight away,
// so the store's array regrows while the list is read. It is the oracle
// FuzzStoreDecode holds decodeBins to.
func referenceDecodeBins(r *encoding.Reader, s Store) error {
	n, err := r.Uvarint()
	if err != nil {
		return fmt.Errorf("store: decoding bin count: %w", err)
	}
	if n > uint64(r.Remaining()/2) {
		return fmt.Errorf("%w: bin count %d exceeds input size", ErrInvalidBins, n)
	}
	var index, minIndex, maxIndex int64
	for i := uint64(0); i < n; i++ {
		delta, err := r.Varint()
		if err != nil {
			return fmt.Errorf("store: decoding bin %d index: %w", i, err)
		}
		count, err := r.Varfloat64()
		if err != nil {
			return fmt.Errorf("store: decoding bin %d count: %w", i, err)
		}
		index += delta
		if index > maxDecodedIndexMagnitude || index < -maxDecodedIndexMagnitude ||
			index != int64(int(index)) {
			return fmt.Errorf("%w: bucket index %d out of range", ErrInvalidBins, index)
		}
		if i == 0 {
			minIndex, maxIndex = index, index
		} else if index < minIndex {
			minIndex = index
		} else if index > maxIndex {
			maxIndex = index
		}
		if maxIndex-minIndex > maxDecodedIndexSpan {
			return fmt.Errorf("%w: index span [%d, %d] too wide", ErrInvalidBins, minIndex, maxIndex)
		}
		if math.IsNaN(count) || math.IsInf(count, 0) || count <= 0 {
			return fmt.Errorf("%w: bin %d count %v", ErrInvalidBins, i, count)
		}
		s.AddWithCount(int(index), count)
	}
	return nil
}

// binsOf lists a store's bins in ForEach order as (index, count bits)
// pairs, so that comparisons are bit-exact.
func binsOf(s Store) [][2]uint64 {
	var out [][2]uint64
	s.ForEach(func(index int, count float64) bool {
		out = append(out, [2]uint64{uint64(index), math.Float64bits(count)})
		return true
	})
	return out
}

// collapsingStore is the configuration the two collapsing stores add
// to the Store interface.
type collapsingStore interface {
	IsCollapsed() bool
	MaxBins() int
}

// encodeRawBins writes a store header and a bin list exactly as given,
// including orders and counts no encoder emits.
func encodeRawBins(tag byte, maxBins uint64, indexes []int64, counts []float64) []byte {
	w := encoding.NewWriter(16 + 10*len(indexes))
	w.Byte(tag)
	if tag == typeCollapsingLowest || tag == typeCollapsingHighest {
		w.Uvarint(maxBins)
	}
	w.Uvarint(uint64(len(indexes)))
	prev := int64(0)
	for i, index := range indexes {
		w.Varint(index - prev)
		w.Varfloat64(counts[i])
		prev = index
	}
	return w.Bytes()
}

// FuzzStoreDecode holds Decode to the one-pass decoder it replaced on
// arbitrary input, across all five store type tags and arbitrary bin
// limits: the same accept or reject, the same error text, the same
// reader position, and on acceptance the same concrete type, ForEach
// bins, TotalCount bits, IsCollapsed and MaxBins. Seeds include lists
// whose span exceeds a collapsing store's limit, in ascending,
// descending and mixed order, so the decoder's collapses are compared
// too.
func FuzzStoreDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range allStores {
		s := c.new()
		for i := 0; i < 200; i++ {
			s.AddWithCount(rng.Intn(300)-150, float64(1+rng.Intn(4))+rng.Float64())
		}
		w := encoding.NewWriter(0)
		s.Encode(w)
		f.Add(w.Bytes())
	}
	ascending := make([]int64, 300)
	counts := make([]float64, 300)
	for i := range ascending {
		ascending[i] = int64(i*3 - 200)
		counts[i] = 0.1 * float64(1+i%7)
	}
	descending := make([]int64, len(ascending))
	mixed := make([]int64, len(ascending))
	for i := range ascending {
		descending[i] = ascending[len(ascending)-1-i]
		mixed[i] = ascending[(i*37)%len(ascending)]
	}
	for _, tag := range []byte{typeDense, typeCollapsingLowest, typeCollapsingHighest, typeSparse, typeBufferedPaginated} {
		for _, maxBins := range []uint64{0, 1, 64, 2048} {
			for _, indexes := range [][]int64{ascending, descending, mixed} {
				f.Add(encodeRawBins(tag, maxBins, indexes, counts))
			}
		}
	}
	bad := append([]float64(nil), counts...)
	bad[len(bad)-1] = math.NaN()
	f.Add(encodeRawBins(typeDense, 0, ascending, bad))
	f.Add(encodeRawBins(typeCollapsingLowest, 8, []int64{0, maxDecodedIndexSpan + 1}, []float64{1, 1}))
	f.Add(encodeRawBins(typeCollapsingHighest, 8, []int64{maxDecodedIndexMagnitude + 1}, []float64{1}))
	f.Add(encodeRawBins(typeDense, 0, []int64{5, 5, 5}, []float64{0.1, 0.2, 0.3}))
	f.Add([]byte{typeDense, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{typeCollapsingLowest})
	f.Add([]byte{200})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, refR := encoding.NewReader(data), encoding.NewReader(data)
		got, err := Decode(r)
		ref, refErr := decodeHeader(refR)
		if refErr == nil {
			refErr = referenceDecodeBins(refR, ref)
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("Decode error %q, reference error %q", err, refErr)
			}
			return
		}
		if r.Remaining() != refR.Remaining() {
			t.Fatalf("Decode left %d bytes, reference %d", r.Remaining(), refR.Remaining())
		}
		if reflect.TypeOf(got) != reflect.TypeOf(ref) {
			t.Fatalf("Decode built %T, reference %T", got, ref)
		}
		if g, w := binsOf(got), binsOf(ref); !reflect.DeepEqual(g, w) {
			t.Fatalf("bins differ:\n got %v\nwant %v", g, w)
		}
		if g, w := math.Float64bits(got.TotalCount()), math.Float64bits(ref.TotalCount()); g != w {
			t.Fatalf("TotalCount %v, reference %v", got.TotalCount(), ref.TotalCount())
		}
		if gc, ok := got.(collapsingStore); ok {
			rc := ref.(collapsingStore)
			if gc.IsCollapsed() != rc.IsCollapsed() || gc.MaxBins() != rc.MaxBins() {
				t.Fatalf("IsCollapsed/MaxBins %t/%d, reference %t/%d",
					gc.IsCollapsed(), gc.MaxBins(), rc.IsCollapsed(), rc.MaxBins())
			}
		}
	})
}

// TestDecodeBinListPoolBounded: a payload declaring as many bins as its
// size allows, ~Remaining/2 of two-byte bins, well past maxPooledBins,
// decodes, and the list it grew is dropped instead of pooled; an
// ordinary payload's list is pooled for the next decode.
func TestDecodeBinListPoolBounded(t *testing.T) {
	const n = 4 * maxPooledBins
	w := encoding.NewWriter(2*n + 8)
	w.Byte(typeDense)
	w.Uvarint(n)
	for i := 0; i < n; i++ {
		w.Varint(1)     // one byte
		w.Varfloat64(2) // one byte
	}
	data := w.Bytes()
	r := encoding.NewReader(data[1:])
	if k, _ := r.Uvarint(); k != uint64(r.Remaining()/2) {
		t.Fatalf("payload declares %d bins for %d bytes, want Remaining/2", k, r.Remaining())
	}
	// pooledCaps drains a few lists from the pool, reports the largest
	// capacity, and puts them back.
	pooledCaps := func() int {
		largest := 0
		var lists []*[]decodedBin
		for i := 0; i < 4; i++ {
			l := binLists.Get().(*[]decodedBin)
			largest = max(largest, cap(*l))
			lists = append(lists, l)
		}
		for _, l := range lists {
			binLists.Put(l)
		}
		return largest
	}
	s, err := Decode(encoding.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBins() != n || s.TotalCount() != 2*n {
		t.Fatalf("decoded %d bins, count %v; want %d, %d", s.NumBins(), s.TotalCount(), n, 2*n)
	}
	if c := pooledCaps(); c > maxPooledBins {
		t.Errorf("pool kept a list of %d bins, cap is %d", c, maxPooledBins)
	}

	ordinary := encodeRawBins(typeDense, 0, []int64{1, 2, 3}, []float64{1, 1, 1})
	// Several decodes: the race detector's sync.Pool drops some Puts.
	for i := 0; i < 20; i++ {
		if _, err := Decode(encoding.NewReader(ordinary)); err != nil {
			t.Fatal(err)
		}
	}
	if c := pooledCaps(); c == 0 {
		t.Errorf("an ordinary decode pooled no bin list")
	}
}
