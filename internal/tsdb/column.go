package tsdb

import (
	"math"
	"sort"
)

// Mutable-head columnar series storage. A series is identified by
// (measurement, canonical tag set) and holds its samples as a run of
// sealed compressed blocks plus one mutable head: parallel column
// arrays (one timestamp column, one float64 column per field seen) that
// absorb appends and bounded mid-stream inserts, then seal into a block
// when they reach blockRows.
//
// NaN is the in-head absence sentinel — safe because Validate and the
// line protocol reject non-finite field values, so a NaN cell can only
// mean "this row has no value for this field".

// colHead is the mutable tail of a series: times plus one value column
// per field, all the same length, sorted by time (stable under
// duplicate timestamps — equal-time inserts land after existing rows).
type colHead struct {
	times []int64
	cols  [][]float64 // aligned with memSeries.names
}

// memSeries is one series: identity, sealed history, mutable head.
type memSeries struct {
	seq    int    // creation order within the measurement (scan tie-break)
	key    string // canonical series key (appendSeriesKey form)
	tags   map[string]string
	names  []string       // field names, creation order, aligned with head.cols
	fields map[string]int // field name -> index in names
	blocks []*block
	head   colHead
}

// measurement groups the series of one measurement name.
type measurement struct {
	name    string
	series  []*memSeries // creation order == seq order
	byKey   map[string]*memSeries
	nextSeq int
}

// matchTags reports whether the series' tag set satisfies an equality
// filter (every filter key present with the given value).
func (s *memSeries) matchTags(filter map[string]string) bool {
	for k, v := range filter {
		if s.tags[k] != v {
			return false
		}
	}
	return true
}

// fieldCol returns the head column index for a field, creating the
// column (NaN-backfilled over existing head rows) on first sight.
func (s *memSeries) fieldCol(name string, in interner) int {
	if i, ok := s.fields[name]; ok {
		return i
	}
	name = in.intern(name)
	col := make([]float64, len(s.head.times), max(cap(s.head.times), 64))
	nan := math.NaN()
	for i := range col {
		col[i] = nan
	}
	i := len(s.names)
	s.names = append(s.names, name)
	s.fields[name] = i
	s.head.cols = append(s.head.cols, col)
	return i
}

// insertRow adds one sample to the head, keeping it time-sorted. The
// common append (t >= last time) is O(1); an out-of-order point shifts
// only the head's tail — bounded by blockRows — instead of copying the
// whole series as the old row store did. Equal timestamps insert after
// existing rows, preserving ingest order within the head.
func (s *memSeries) insertRow(t int64, fields []rowKV, in interner) {
	h := &s.head
	n := len(h.times)
	pos := n
	if n > 0 && t < h.times[n-1] {
		pos = sort.Search(n, func(i int) bool { return h.times[i] > t })
	}
	// Grow every column by one, then shift the tail open at pos.
	h.times = append(h.times, 0)
	copy(h.times[pos+1:], h.times[pos:])
	h.times[pos] = t
	nan := math.NaN()
	for i := range h.cols {
		c := append(h.cols[i], 0)
		copy(c[pos+1:], c[pos:])
		c[pos] = nan
		h.cols[i] = c
	}
	for i, f := range fields {
		// A series fed in one key order finds field i in column i; any
		// other row looks its columns up. fieldCol may have appended a
		// fresh column already sized to the post-insert row count; both
		// paths leave cols[ci] length n+1.
		ci := i
		if ci >= len(s.names) || s.names[ci] != f.key {
			ci = s.fieldCol(f.key, in)
		}
		s.head.cols[ci][pos] = f.num
	}
}

// seal compresses the head into an immutable block, appends it to the
// series history, and resets the head (keeping capacity for reuse).
func (s *memSeries) seal() (*block, error) {
	b, err := encodeBlock(s.head.times, s.names, s.head.cols)
	if err != nil {
		return nil, err
	}
	s.blocks = append(s.blocks, b)
	s.head.times = s.head.times[:0]
	for i := range s.head.cols {
		s.head.cols[i] = s.head.cols[i][:0]
	}
	return b, nil
}

// headRange returns the head's time span; ok is false when empty.
func (h *colHead) timeRange() (minT, maxT int64, ok bool) {
	if len(h.times) == 0 {
		return 0, 0, false
	}
	return h.times[0], h.times[len(h.times)-1], true
}
