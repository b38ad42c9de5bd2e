package store

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/mapping"
)

// referenceMergeDense is the per-bucket MergeWith loop of the three
// dense stores that the addRun kernel replaced: every positive source
// bucket goes through addAt on its own, folded into the floor (or
// ceiling) when it lies past the collapse bound. It is the oracle
// FuzzDenseMerge holds MergeWith to.
func referenceMergeDense(dst Store, d *denseBins) {
	if d.isEmpty() {
		return
	}
	oMin, _ := d.minIndex()
	oMax, _ := d.maxIndex()
	switch s := dst.(type) {
	case *DenseStore:
		s.ensureRange(oMin, oMax)
		for i := oMin; i <= oMax; i++ {
			if c := d.bins[i-d.offset]; c > 0 {
				s.addAt(i, c)
			}
		}
	case *CollapsingLowestDenseStore:
		newMin, newMax := oMin, oMax
		if !s.isEmpty() {
			newMin, newMax = min(newMin, s.minIdx), max(newMax, s.maxIdx)
		}
		if newMax-newMin+1 > s.maxBins {
			newMin = newMax - s.maxBins + 1
			s.isCollapsed = true
		}
		s.ensureBounded(newMin, newMax)
		s.shiftLowInto(newMin)
		for i := oMin; i <= oMax; i++ {
			if c := d.bins[i-d.offset]; c > 0 {
				s.addAt(max(i, newMin), c)
			}
		}
	case *CollapsingHighestDenseStore:
		newMin, newMax := oMin, oMax
		if !s.isEmpty() {
			newMin, newMax = min(newMin, s.minIdx), max(newMax, s.maxIdx)
		}
		if newMax-newMin+1 > s.maxBins {
			newMax = newMin + s.maxBins - 1
			s.isCollapsed = true
		}
		s.ensureBounded(newMin, newMax)
		s.shiftHighInto(newMax)
		for i := oMin; i <= oMax; i++ {
			if c := d.bins[i-d.offset]; c > 0 {
				s.addAt(min(i, newMax), c)
			}
		}
	}
}

// newDense returns an empty dense store of one of the three kinds.
func newDense(kind, maxBins int) Store {
	switch kind % 3 {
	case 0:
		return NewDenseStore()
	case 1:
		return NewCollapsingLowestDenseStore(maxBins)
	default:
		return NewCollapsingHighestDenseStore(maxBins)
	}
}

// fillDense replays ops on s: each op is an index (base + a signed
// byte) and a count with a fractional part, some of them negative, so
// that buckets are emptied and the range hints go stale as well.
func fillDense(s Store, base int, ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		index := base + int(int8(ops[i]))
		count := float64(ops[i+1]>>2) / 7
		if ops[i+1]&1 == 1 {
			count = -count
		}
		if ops[i+1]&2 == 2 {
			count *= 1e-9 // tiny next to the total: float drift
		}
		s.AddWithCount(index, count)
	}
}

// FuzzDenseMerge holds MergeWith between any two of the three dense
// store kinds to the per-bucket loop it replaced, on stores built from
// arbitrary fractional adds and removals, with overlapping, disjoint and
// collapsing ranges and small bin limits: the same ForEach bins, the
// same TotalCount bits, the same range hints and min/max indexes, and
// the same collapse state.
func FuzzDenseMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for kinds := 0; kinds < 9; kinds++ {
		for _, maxBins := range []uint8{1, 3, 16, 200} {
			for _, shift := range []int16{0, 40, -300} {
				f.Add(uint8(kinds), maxBins, shift, random(64), random(64), false)
			}
		}
	}
	// Destinations emptied by removals, whose range hints are stale.
	emptied := []byte{5, 4 << 2, 5, 4<<2 | 1, 9, 1 << 2, 9, 2<<2 | 1}
	for kinds := uint8(0); kinds < 9; kinds++ {
		f.Add(kinds, uint8(4), int16(20), emptied, random(16), false)
	}
	f.Add(uint8(0), uint8(8), int16(0), random(32), []byte(nil), true)
	f.Add(uint8(4), uint8(8), int16(5), random(32), random(32), true)
	f.Fuzz(func(t *testing.T, kinds, maxBins uint8, shift int16, dstOps, srcOps []byte, self bool) {
		dstKind, srcKind, bins := int(kinds)%3, int(kinds)/3%3, int(maxBins%64)+1
		src := newDense(srcKind, bins)
		fillDense(src, int(shift), srcOps)
		got, want := newDense(dstKind, bins), newDense(dstKind, bins)
		fillDense(got, 0, dstOps)
		fillDense(want, 0, dstOps)
		if self {
			got.MergeWith(got)
			referenceMergeDense(want, denseBinsOf(want))
		} else {
			got.MergeWith(src)
			referenceMergeDense(want, denseBinsOf(src))
		}
		if g, w := binsOf(got), binsOf(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("bins differ:\n got %v\nwant %v", g, w)
		}
		if g, w := math.Float64bits(got.TotalCount()), math.Float64bits(want.TotalCount()); g != w {
			t.Fatalf("TotalCount %v, reference %v", got.TotalCount(), want.TotalCount())
		}
		gd, wd := denseBinsOf(got), denseBinsOf(want)
		if gd.minIdx != wd.minIdx || gd.maxIdx != wd.maxIdx {
			t.Fatalf("range hints [%d, %d], reference [%d, %d]", gd.minIdx, gd.maxIdx, wd.minIdx, wd.maxIdx)
		}
		gMin, gErr := got.MinIndex()
		wMin, wErr := want.MinIndex()
		gMax, _ := got.MaxIndex()
		wMax, _ := want.MaxIndex()
		if gMin != wMin || gMax != wMax || (gErr == nil) != (wErr == nil) {
			t.Fatalf("min/max index %d/%d (%v), reference %d/%d (%v)", gMin, gMax, gErr, wMin, wMax, wErr)
		}
		if gc, ok := got.(collapsingStore); ok && gc.IsCollapsed() != want.(collapsingStore).IsCollapsed() {
			t.Fatalf("IsCollapsed %t, reference %t", gc.IsCollapsed(), !gc.IsCollapsed())
		}
	})
}

// BenchmarkStoreMergeDense merges an agent's positive store (1,000 span
// latencies at α = 1%, 2,048 bins, as NewCollapsing(0.01, 2048) keeps
// them: 481 bins over a span of 920) into a collapsing store, the
// per-payload merge an aggregator runs.
func BenchmarkStoreMergeDense(b *testing.B) {
	m, err := mapping.NewLogarithmic(0.01)
	if err != nil {
		b.Fatal(err)
	}
	src := NewCollapsingLowestDenseStore(2048)
	for _, v := range datagen.SpanSeeded(1000, 1) {
		src.Add(m.Index(v))
	}
	dst := NewCollapsingLowestDenseStore(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MergeWith(src)
	}
}

// TestAddRunMatchesAddWithCount: AddRun leaves a DenseStore exactly as
// AddWithCount on each positive count would, on runs with zero,
// negative and NaN slots (at the ends too), into empty and populated
// stores, and into a range already reserved.
func TestAddRunMatchesAddWithCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		got, want := NewDenseStore(), NewDenseStore()
		for i := 0; i < rng.Intn(40); i++ {
			index, count := rng.Intn(200)-100, rng.Float64()*3
			got.AddWithCount(index, count)
			want.AddWithCount(index, count)
		}
		if trial%4 == 0 {
			Reserve(got, -150, 150)
		}
		counts := make([]float64, rng.Intn(120))
		for i := range counts {
			switch rng.Intn(6) {
			case 0:
				counts[i] = 0
			case 1:
				counts[i] = -1
			case 2:
				counts[i] = math.NaN()
			default:
				counts[i] = rng.Float64() * 5
			}
		}
		index := rng.Intn(200) - 150
		got.AddRun(index, counts)
		for k, count := range counts {
			if count > 0 {
				want.AddWithCount(index+k, count)
			}
		}
		if g, w := binsOf(got), binsOf(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("bins differ:\n got %v\nwant %v", g, w)
		}
		if g, w := math.Float64bits(got.TotalCount()), math.Float64bits(want.TotalCount()); g != w {
			t.Fatalf("TotalCount %v, want %v", got.TotalCount(), want.TotalCount())
		}
		if got.minIdx != want.minIdx || got.maxIdx != want.maxIdx {
			t.Fatalf("range hints [%d, %d], want [%d, %d]", got.minIdx, got.maxIdx, want.minIdx, want.maxIdx)
		}
	}
}
