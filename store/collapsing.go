package store

import (
	"fmt"

	"github.com/ddsketch-go/ddsketch/encoding"
)

// CollapsingLowestDenseStore is a dense store whose tracked index range
// never exceeds maxBins buckets. When an insertion would widen the range
// beyond the limit, the lowest buckets are folded together (the paper's
// Algorithm 3), trading away accuracy on the lowest quantiles to bound
// memory. Proposition 4 of the paper quantifies which quantiles remain
// α-accurate: any q with x₁ ≤ xq·γ^(m−1).
//
// Note that the limit applies to the index *range* rather than to the
// number of non-empty buckets, which is slightly more aggressive than
// Algorithm 3 as written but allows a contiguous array representation;
// this matches the authors' production implementations.
type CollapsingLowestDenseStore struct {
	denseBins
	maxBins     int
	isCollapsed bool
}

var _ Store = (*CollapsingLowestDenseStore)(nil)

// NewCollapsingLowestDenseStore returns an empty store that keeps at most
// maxBins buckets by collapsing the lowest indexes. maxBins values below
// 1 are treated as 1.
func NewCollapsingLowestDenseStore(maxBins int) *CollapsingLowestDenseStore {
	if maxBins < 1 {
		maxBins = 1
	}
	return &CollapsingLowestDenseStore{maxBins: maxBins}
}

// MaxBins returns the configured bucket limit.
func (s *CollapsingLowestDenseStore) MaxBins() int { return s.maxBins }

// IsCollapsed reports whether any collapse has occurred, i.e. whether the
// lowest quantiles may no longer be α-accurate.
func (s *CollapsingLowestDenseStore) IsCollapsed() bool { return s.isCollapsed }

// Add increments the bucket at index by one, collapsing if needed.
func (s *CollapsingLowestDenseStore) Add(index int) { s.AddWithCount(index, 1) }

// AddWithCount adds count to the bucket at index, collapsing the lowest
// buckets if the store would exceed its bin limit.
func (s *CollapsingLowestDenseStore) AddWithCount(index int, count float64) {
	if count == 0 {
		return
	}
	if count < 0 {
		if s.bins == nil || index < s.offset || index >= s.offset+len(s.bins) {
			return
		}
		s.addAt(index, count)
		return
	}
	if s.isEmpty() {
		s.ensureBounded(index, index)
		s.addAt(index, count)
		return
	}
	switch {
	case index < s.minIdx:
		if s.maxIdx-index+1 > s.maxBins {
			// The new bucket is below the lowest index the store can
			// afford to keep: fold it into the lowest kept bucket.
			s.isCollapsed = true
			index = s.maxIdx - s.maxBins + 1
		}
		s.ensureBounded(index, index)
		s.addAt(index, count)
	case index > s.maxIdx:
		if index-s.minIdx+1 > s.maxBins {
			// Raising the top of the range pushes the bottom out: fold
			// everything below the new floor into the floor bucket.
			newMin := index - s.maxBins + 1
			s.ensureBounded(newMin, index)
			s.shiftLowInto(newMin)
			s.isCollapsed = true
		} else {
			s.ensureBounded(index, index)
		}
		s.addAt(index, count)
	default:
		s.addAt(index, count)
	}
}

// ensureBounded makes every index in [lo, hi] addressable while keeping
// the backing array length bounded by maxBins plus slack, relocating the
// live counts if the range has drifted.
func (s *CollapsingLowestDenseStore) ensureBounded(lo, hi int) {
	if s.bins != nil && lo >= s.offset && hi < s.offset+len(s.bins) {
		return
	}
	if !s.isEmpty() {
		if s.minIdx < lo {
			lo = s.minIdx
		}
		if s.maxIdx > hi {
			hi = s.maxIdx
		}
	}
	s.relocateRange(lo, hi, s.maxBins+growthPadding)
}

// IsEmpty reports whether the store holds no weight.
func (s *CollapsingLowestDenseStore) IsEmpty() bool { return s.isEmpty() }

// TotalCount returns the total weight across all buckets.
func (s *CollapsingLowestDenseStore) TotalCount() float64 { return s.count }

// MinIndex returns the lowest non-empty bucket index.
func (s *CollapsingLowestDenseStore) MinIndex() (int, error) { return s.minIndex() }

// MaxIndex returns the highest non-empty bucket index.
func (s *CollapsingLowestDenseStore) MaxIndex() (int, error) { return s.maxIndex() }

// KeyAtRank returns the lowest index whose cumulative count exceeds rank.
func (s *CollapsingLowestDenseStore) KeyAtRank(rank float64) (int, error) {
	return s.keyAtRank(rank)
}

// KeyAtRankDescending returns the highest index whose cumulative count,
// accumulated downward from the highest bucket, exceeds rank.
func (s *CollapsingLowestDenseStore) KeyAtRankDescending(rank float64) (int, error) {
	return s.keyAtRankDescending(rank)
}

// ForEach visits non-empty buckets in ascending index order.
func (s *CollapsingLowestDenseStore) ForEach(f func(index int, count float64) bool) {
	s.forEach(f)
}

// MergeWith adds every bucket of other into this store, collapsing as
// needed (the paper's Algorithm 4). Merges from dense-backed stores
// resolve the collapse boundary once and then add counts array-to-array,
// which is what makes DDSketch merges so much faster than GK's or HDR's
// (Figure 9 of the paper).
func (s *CollapsingLowestDenseStore) MergeWith(other Store) {
	d := denseBinsOf(other)
	if d == nil {
		mergeGeneric(s, other)
		return
	}
	if d.isEmpty() {
		return
	}
	oMin, _ := d.minIndex()
	oMax, _ := d.maxIndex()
	newMin, newMax := oMin, oMax
	if !s.isEmpty() {
		if s.minIdx < newMin {
			newMin = s.minIdx
		}
		if s.maxIdx > newMax {
			newMax = s.maxIdx
		}
	}
	if newMax-newMin+1 > s.maxBins {
		newMin = newMax - s.maxBins + 1
		s.isCollapsed = true
	}
	s.ensureBounded(newMin, newMax)
	s.shiftLowInto(newMin)
	// Buckets below the floor fold into it one by one, then the rest
	// go array to array: the same additions, in the same order, as a
	// per-bucket loop.
	for i := oMin; i < min(newMin, oMax+1); i++ {
		if c := d.bins[i-d.offset]; c > 0 {
			s.addAt(newMin, c)
		}
	}
	s.mergeRun(d, max(oMin, newMin), oMax)
}

// Copy returns a deep copy of the store.
func (s *CollapsingLowestDenseStore) Copy() Store {
	c := NewCollapsingLowestDenseStore(s.maxBins)
	c.copyFrom(&s.denseBins)
	c.isCollapsed = s.isCollapsed
	return c
}

// Clear empties the store, retaining the allocated array. The collapsed
// flag is reset.
func (s *CollapsingLowestDenseStore) Clear() {
	s.clear()
	s.isCollapsed = false
}

// NumBins returns the number of non-empty buckets.
func (s *CollapsingLowestDenseStore) NumBins() int { return s.numBins() }

// SizeBytes estimates the in-memory footprint in bytes.
func (s *CollapsingLowestDenseStore) SizeBytes() int { return s.sizeBytes() + 16 }

// Encode appends the store's binary serialization.
func (s *CollapsingLowestDenseStore) Encode(w *encoding.Writer) {
	w.Byte(typeCollapsingLowest)
	w.Uvarint(uint64(s.maxBins))
	encodeBins(w, s)
}

// String implements fmt.Stringer.
func (s *CollapsingLowestDenseStore) String() string {
	return fmt.Sprintf("CollapsingLowestDenseStore(bins=%d/%d, count=%g, collapsed=%t)",
		s.NumBins(), s.maxBins, s.TotalCount(), s.isCollapsed)
}

// CollapsingHighestDenseStore mirrors CollapsingLowestDenseStore,
// collapsing the highest buckets instead. Per §2.2 of the paper, this is
// the right policy for the store indexing the magnitudes of negative
// values: collapsing its highest indexes sacrifices the most-negative
// values, i.e. the global lowest quantiles, keeping behaviour consistent
// with the positive store.
type CollapsingHighestDenseStore struct {
	denseBins
	maxBins     int
	isCollapsed bool
}

var _ Store = (*CollapsingHighestDenseStore)(nil)

// NewCollapsingHighestDenseStore returns an empty store that keeps at
// most maxBins buckets by collapsing the highest indexes. maxBins values
// below 1 are treated as 1.
func NewCollapsingHighestDenseStore(maxBins int) *CollapsingHighestDenseStore {
	if maxBins < 1 {
		maxBins = 1
	}
	return &CollapsingHighestDenseStore{maxBins: maxBins}
}

// MaxBins returns the configured bucket limit.
func (s *CollapsingHighestDenseStore) MaxBins() int { return s.maxBins }

// IsCollapsed reports whether any collapse has occurred.
func (s *CollapsingHighestDenseStore) IsCollapsed() bool { return s.isCollapsed }

// Add increments the bucket at index by one, collapsing if needed.
func (s *CollapsingHighestDenseStore) Add(index int) { s.AddWithCount(index, 1) }

// AddWithCount adds count to the bucket at index, collapsing the highest
// buckets if the store would exceed its bin limit.
func (s *CollapsingHighestDenseStore) AddWithCount(index int, count float64) {
	if count == 0 {
		return
	}
	if count < 0 {
		if s.bins == nil || index < s.offset || index >= s.offset+len(s.bins) {
			return
		}
		s.addAt(index, count)
		return
	}
	if s.isEmpty() {
		s.ensureBounded(index, index)
		s.addAt(index, count)
		return
	}
	switch {
	case index > s.maxIdx:
		if index-s.minIdx+1 > s.maxBins {
			s.isCollapsed = true
			index = s.minIdx + s.maxBins - 1
		}
		s.ensureBounded(index, index)
		s.addAt(index, count)
	case index < s.minIdx:
		if s.maxIdx-index+1 > s.maxBins {
			newMax := index + s.maxBins - 1
			s.ensureBounded(index, newMax)
			s.shiftHighInto(newMax)
			s.isCollapsed = true
		} else {
			s.ensureBounded(index, index)
		}
		s.addAt(index, count)
	default:
		s.addAt(index, count)
	}
}

// ensureBounded makes every index in [lo, hi] addressable while keeping
// the backing array length bounded by maxBins plus slack, relocating the
// live counts if the range has drifted.
func (s *CollapsingHighestDenseStore) ensureBounded(lo, hi int) {
	if s.bins != nil && lo >= s.offset && hi < s.offset+len(s.bins) {
		return
	}
	if !s.isEmpty() {
		if s.minIdx < lo {
			lo = s.minIdx
		}
		if s.maxIdx > hi {
			hi = s.maxIdx
		}
	}
	s.relocateRange(lo, hi, s.maxBins+growthPadding)
}

// IsEmpty reports whether the store holds no weight.
func (s *CollapsingHighestDenseStore) IsEmpty() bool { return s.isEmpty() }

// TotalCount returns the total weight across all buckets.
func (s *CollapsingHighestDenseStore) TotalCount() float64 { return s.count }

// MinIndex returns the lowest non-empty bucket index.
func (s *CollapsingHighestDenseStore) MinIndex() (int, error) { return s.minIndex() }

// MaxIndex returns the highest non-empty bucket index.
func (s *CollapsingHighestDenseStore) MaxIndex() (int, error) { return s.maxIndex() }

// KeyAtRank returns the lowest index whose cumulative count exceeds rank.
func (s *CollapsingHighestDenseStore) KeyAtRank(rank float64) (int, error) {
	return s.keyAtRank(rank)
}

// KeyAtRankDescending returns the highest index whose cumulative count,
// accumulated downward from the highest bucket, exceeds rank.
func (s *CollapsingHighestDenseStore) KeyAtRankDescending(rank float64) (int, error) {
	return s.keyAtRankDescending(rank)
}

// ForEach visits non-empty buckets in ascending index order.
func (s *CollapsingHighestDenseStore) ForEach(f func(index int, count float64) bool) {
	s.forEach(f)
}

// MergeWith adds every bucket of other into this store, collapsing as
// needed. Merges from dense-backed stores resolve the collapse boundary
// once and then add counts array-to-array.
func (s *CollapsingHighestDenseStore) MergeWith(other Store) {
	d := denseBinsOf(other)
	if d == nil {
		mergeGeneric(s, other)
		return
	}
	if d.isEmpty() {
		return
	}
	oMin, _ := d.minIndex()
	oMax, _ := d.maxIndex()
	newMin, newMax := oMin, oMax
	if !s.isEmpty() {
		if s.minIdx < newMin {
			newMin = s.minIdx
		}
		if s.maxIdx > newMax {
			newMax = s.maxIdx
		}
	}
	if newMax-newMin+1 > s.maxBins {
		newMax = newMin + s.maxBins - 1
		s.isCollapsed = true
	}
	s.ensureBounded(newMin, newMax)
	s.shiftHighInto(newMax)
	// The mirror image: the in-range buckets go array to array, then
	// those above the ceiling fold into it one by one.
	s.mergeRun(d, oMin, min(oMax, newMax))
	for i := max(oMin, newMax+1); i <= oMax; i++ {
		if c := d.bins[i-d.offset]; c > 0 {
			s.addAt(newMax, c)
		}
	}
}

// Copy returns a deep copy of the store.
func (s *CollapsingHighestDenseStore) Copy() Store {
	c := NewCollapsingHighestDenseStore(s.maxBins)
	c.copyFrom(&s.denseBins)
	c.isCollapsed = s.isCollapsed
	return c
}

// Clear empties the store, retaining the allocated array. The collapsed
// flag is reset.
func (s *CollapsingHighestDenseStore) Clear() {
	s.clear()
	s.isCollapsed = false
}

// NumBins returns the number of non-empty buckets.
func (s *CollapsingHighestDenseStore) NumBins() int { return s.numBins() }

// SizeBytes estimates the in-memory footprint in bytes.
func (s *CollapsingHighestDenseStore) SizeBytes() int { return s.sizeBytes() + 16 }

// Encode appends the store's binary serialization.
func (s *CollapsingHighestDenseStore) Encode(w *encoding.Writer) {
	w.Byte(typeCollapsingHighest)
	w.Uvarint(uint64(s.maxBins))
	encodeBins(w, s)
}

// String implements fmt.Stringer.
func (s *CollapsingHighestDenseStore) String() string {
	return fmt.Sprintf("CollapsingHighestDenseStore(bins=%d/%d, count=%g, collapsed=%t)",
		s.NumBins(), s.maxBins, s.TotalCount(), s.isCollapsed)
}
