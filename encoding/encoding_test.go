package encoding

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUvarint64RoundTrip(t *testing.T) {
	cases := []uint64{
		0, 1, 2, 127, 128, 129, 300, 16383, 16384,
		1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28,
		1<<35 - 1, 1 << 35, 1<<42 - 1, 1 << 42,
		1<<49 - 1, 1 << 49, 1<<56 - 1, 1 << 56,
		math.MaxUint64 - 1, math.MaxUint64,
	}
	for _, v := range cases {
		b := PutUvarint64(nil, v)
		if len(b) > MaxVarLen64 {
			t.Errorf("PutUvarint64(%d) used %d bytes, max is %d", v, len(b), MaxVarLen64)
		}
		got, n, err := Uvarint64(b)
		if err != nil {
			t.Fatalf("Uvarint64(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("Uvarint64 round trip: got %d, want %d", got, v)
		}
		if n != len(b) {
			t.Errorf("Uvarint64(%d) consumed %d bytes, encoded %d", v, n, len(b))
		}
	}
}

func TestUvarint64Sizes(t *testing.T) {
	cases := []struct {
		v    uint64
		size int
	}{
		{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3},
		{1<<56 - 1, 8}, {1 << 56, 9}, {math.MaxUint64, 9},
	}
	for _, c := range cases {
		if got := len(PutUvarint64(nil, c.v)); got != c.size {
			t.Errorf("PutUvarint64(%d): %d bytes, want %d", c.v, got, c.size)
		}
		if got := UvarintSize(c.v); got != c.size {
			t.Errorf("UvarintSize(%d) = %d, want %d", c.v, got, c.size)
		}
	}
}

func TestVarint64RoundTrip(t *testing.T) {
	cases := []int64{
		0, 1, -1, 2, -2, 63, -63, 64, -64, 65, -65,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for _, v := range cases {
		b := PutVarint64(nil, v)
		got, n, err := Varint64(b)
		if err != nil {
			t.Fatalf("Varint64(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("Varint64 round trip: got (%d, %d), want (%d, %d)", got, n, v, len(b))
		}
	}
}

func TestVarintSmallMagnitudesAreShort(t *testing.T) {
	for v := int64(-64); v < 64; v++ {
		if got := len(PutVarint64(nil, v)); got != 1 {
			t.Errorf("PutVarint64(%d): %d bytes, want 1", v, got)
		}
	}
}

func TestFloat64LERoundTrip(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, math.Pi,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
	}
	for _, v := range cases {
		b := PutFloat64LE(nil, v)
		if len(b) != 8 {
			t.Fatalf("PutFloat64LE(%g): %d bytes, want 8", v, len(b))
		}
		got, n, err := Float64LE(b)
		if err != nil {
			t.Fatalf("Float64LE(%g): %v", v, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) || n != 8 {
			t.Errorf("Float64LE round trip: got %g, want %g", got, v)
		}
	}
}

func TestFloat64LENaN(t *testing.T) {
	b := PutFloat64LE(nil, math.NaN())
	got, _, err := Float64LE(b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got) {
		t.Errorf("NaN round trip: got %g", got)
	}
}

func TestVarfloat64RoundTrip(t *testing.T) {
	cases := []float64{0, 1, 2, 3, 1000, 1e15, 0.5, math.Pi, -1, math.Inf(1)}
	for _, v := range cases {
		b := PutVarfloat64(nil, v)
		got, n, err := Varfloat64(b)
		if err != nil {
			t.Fatalf("Varfloat64(%g): %v", v, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) || n != len(b) {
			t.Errorf("Varfloat64 round trip: got %g, want %g", got, v)
		}
	}
}

func TestVarfloat64IntegersAreShort(t *testing.T) {
	// The bit-reversal trick should make small integral counts cheap.
	for _, v := range []float64{0, 1, 2, 4, 8, 100} {
		if got := len(PutVarfloat64(nil, v)); got > 3 {
			t.Errorf("PutVarfloat64(%g): %d bytes, want ≤ 3", v, got)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	if _, _, err := Uvarint64(nil); err == nil {
		t.Error("Uvarint64(nil): want error")
	}
	if _, _, err := Uvarint64([]byte{0x80}); err == nil {
		t.Error("Uvarint64(truncated): want error")
	}
	if _, _, err := Float64LE([]byte{1, 2, 3}); err == nil {
		t.Error("Float64LE(short): want error")
	}
	if _, _, err := Varint64([]byte{0xff}); err == nil {
		t.Error("Varint64(truncated): want error")
	}
}

func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, n, err := Uvarint64(PutUvarint64(nil, v))
		return err == nil && got == v && n >= 1 && n <= MaxVarLen64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, _, err := Varint64(PutVarint64(nil, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarfloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		got, _, err := Varfloat64(PutVarfloat64(nil, v))
		return err == nil && math.Float64bits(got) == math.Float64bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUvarintSizeMatchesEncoding(t *testing.T) {
	f := func(v uint64) bool {
		return UvarintSize(v) == len(PutUvarint64(nil, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterReaderSequence(t *testing.T) {
	w := NewWriter(0)
	w.Byte(0xAB)
	w.Uvarint(12345)
	w.Varint(-9876)
	w.Float64(2.5)
	w.Varfloat64(42)

	r := NewReader(w.Bytes())
	if b, err := r.Byte(); err != nil || b != 0xAB {
		t.Fatalf("Byte: got (%x, %v)", b, err)
	}
	if v, err := r.Uvarint(); err != nil || v != 12345 {
		t.Fatalf("Uvarint: got (%d, %v)", v, err)
	}
	if v, err := r.Varint(); err != nil || v != -9876 {
		t.Fatalf("Varint: got (%d, %v)", v, err)
	}
	if v, err := r.Float64(); err != nil || v != 2.5 {
		t.Fatalf("Float64: got (%g, %v)", v, err)
	}
	if v, err := r.Varfloat64(); err != nil || v != 42 {
		t.Fatalf("Varfloat64: got (%g, %v)", v, err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
	if _, err := r.Byte(); err == nil {
		t.Error("reading past end: want error")
	}
}

func TestReaderErrorsIncludeOffset(t *testing.T) {
	r := NewReader([]byte{0x01})
	if _, err := r.Byte(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Uvarint()
	if err == nil {
		t.Fatal("want error at end of buffer")
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter(16)
	if w.Len() != 0 {
		t.Fatalf("new writer Len = %d", w.Len())
	}
	w.Float64(1)
	if w.Len() != 8 {
		t.Fatalf("Len after Float64 = %d, want 8", w.Len())
	}
}

// TestReaderMatchesCheckedDecoders: the Reader methods, which decode in
// place while nine bytes remain, read every prefix of a mixed stream of
// varints exactly as the checked package-level decoders do: the same
// values, the same offsets, and the same error at the same value.
func TestReaderMatchesCheckedDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var stream []byte
	for i := 0; i < 300; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		switch i % 3 {
		case 0:
			stream = PutUvarint64(stream, v)
		case 1:
			stream = PutVarint64(stream, int64(v)*int64(1-2*(i%2)))
		default:
			stream = PutVarfloat64(stream, float64(v%9)+rng.Float64()*float64(i%2))
		}
	}
	for end := 0; end <= len(stream); end++ {
		b := stream[:end]
		r := NewReader(b)
		off := 0
		for i := 0; ; i++ {
			var got, want uint64
			var err, wantErr error
			var n int
			switch i % 3 {
			case 0:
				got, err = r.Uvarint()
				want, n, wantErr = Uvarint64(b[off:])
			case 1:
				var g, w int64
				g, err = r.Varint()
				w, n, wantErr = Varint64(b[off:])
				got, want = uint64(g), uint64(w)
			default:
				var g, w float64
				g, err = r.Varfloat64()
				w, n, wantErr = Varfloat64(b[off:])
				got, want = math.Float64bits(g), math.Float64bits(w)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
				t.Fatalf("prefix %d, value %d: error %v, checked decoder %v", end, i, err, wantErr)
			}
			if err != nil {
				break
			}
			off += n
			if got != want || r.Remaining() != len(b)-off {
				t.Fatalf("prefix %d, value %d: read %x leaving %d, checked decoder %x leaving %d",
					end, i, got, r.Remaining(), want, len(b)-off)
			}
			if r.Remaining() == 0 {
				break
			}
		}
	}
}
