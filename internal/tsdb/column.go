package tsdb

import (
	"math"
	"sort"
)

// Columnar series storage. A series is identified by (measurement,
// canonical tag set) and holds its samples as a run of sealed compressed
// blocks plus a head that takes new rows: an open block (block.go),
// compressed as rows arrive in time order, and a side run holding the
// rows that arrived late. The head seals into a block when it reaches
// blockRows.
//
// The head's rows, in scan order, are the open block's merged with the
// side run's by time, open rows first on equal times: a late row at time
// t arrived after every open row at t, so this is ingest order among
// equal times. Without a side run a seal only closes the open block.
//
// NaN is the side run's absence sentinel — safe because Validate and
// the line protocol reject non-finite field values, so a NaN cell can
// only mean "this row has no value for this field".

// sideRun holds the head's late rows — each older than the open block's
// last when it arrived — sorted by time, equal times in arrival order.
type sideRun struct {
	times []int64
	cols  [][]float64 // as long as times, aligned with memSeries.names; columns past the end are absent
}

// memSeries is one series: identity, sealed history, head.
type memSeries struct {
	seq    int    // creation order within the measurement (scan tie-break)
	key    string // canonical series key (appendSeriesKey form)
	tags   map[string]string
	names  []string       // field names, creation order, aligned with open.cols
	fields map[string]int // field name -> index in names
	blocks []*block
	open   openBlock
	side   sideRun
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

// fieldCol returns the column index for a field, adding the field on
// first sight.
func (s *memSeries) fieldCol(name string, in interner) int {
	if i, ok := s.fields[name]; ok {
		return i
	}
	name = in.intern(name)
	i := len(s.names)
	s.names = append(s.names, name)
	s.fields[name] = i
	s.open.cols = append(s.open.cols, openCol{})
	return i
}

// insertRow adds one sample to the head. A row at or after the open
// block's last time is compressed straight into it; an older one is
// inserted into the side run after the rows at its time or before.
func (s *memSeries) insertRow(t int64, fields []rowKV, in interner) {
	o, sd := &s.open, &s.side
	late := o.rows > 0 && t < o.maxT
	var r int
	if late {
		r = sort.Search(len(sd.times), func(i int) bool { return sd.times[i] > t })
		sd.times = append(sd.times, 0)
		copy(sd.times[r+1:], sd.times[r:])
		sd.times[r] = t
		for i, c := range sd.cols {
			c = append(c, 0)
			copy(c[r+1:], c[r:])
			c[r] = math.NaN()
			sd.cols[i] = c
		}
	} else {
		r = o.appendTime(t)
	}
	for i, f := range fields {
		// A series fed in one key order finds field i in column i; any
		// other row looks its columns up.
		ci := i
		if ci >= len(s.names) || s.names[ci] != f.key {
			ci = s.fieldCol(f.key, in)
		}
		if !late {
			o.bytes += o.cols[ci].put(r, f.num)
			continue
		}
		for len(sd.cols) <= ci {
			col := make([]float64, len(sd.times))
			for k := range col {
				col[k] = math.NaN()
			}
			sd.cols = append(sd.cols, col)
		}
		sd.cols[ci][r] = f.num
	}
}

// headRows is the head's row count.
func (s *memSeries) headRows() int { return s.open.rows + len(s.side.times) }

// headBytes is what the head holds: the open block's compressed bytes
// and 8 bytes per side-run cell.
func (s *memSeries) headBytes() int64 {
	return int64(s.open.bytes + 8*len(s.side.times)*(1+len(s.side.cols)))
}

// headRange returns the head's time span; ok is false when empty. Late
// rows are older than the open block's last, so maxT is that.
func (s *memSeries) headRange() (minT, maxT int64, ok bool) {
	if s.open.rows == 0 {
		return 0, 0, false
	}
	minT = s.open.minT
	if len(s.side.times) > 0 {
		minT = min(minT, s.side.times[0])
	}
	return minT, s.open.maxT, true
}

// headColumns materializes the head's rows in scan order: times, and per
// cis entry (a column index, or -1) that column with NaN where a row has
// none — nil when the head holds no value of it. times and cols are reused when
// they have capacity. It only reads the head, so readers sharing the
// data lock may call it.
func (s *memSeries) headColumns(cis []int, times []int64, cols [][]float64) ([]int64, [][]float64, error) {
	o, sd := &s.open, &s.side
	n := o.rows + len(sd.times)
	if cap(times) < n {
		times = make([]int64, n)
	}
	if err := decodeTimeStream(o.ts, times[:o.rows]); err != nil {
		return nil, nil, err
	}
	if cap(cols) < len(cis) {
		cols = make([][]float64, len(cis))
	}
	cols = cols[:len(cis)]
	for i, ci := range cis {
		var late []float64
		if ci >= 0 && ci < len(sd.cols) {
			late = sd.cols[ci]
		}
		if ci < 0 || (o.cols[ci].count == 0 && len(late) == 0) {
			cols[i] = nil
			continue
		}
		col := cols[i]
		if cap(col) < n {
			col = make([]float64, n)
		}
		col, err := o.decodeCol(ci, col[:o.rows])
		if err != nil {
			return nil, nil, err
		}
		cols[i] = mergeLate(col, times, late, sd.times, math.NaN())
	}
	return mergeLate(times[:o.rows], times, sd.times, sd.times, 0), cols, nil
}

// mergeLate merges the side run's cells late (nil: absent, read as fill)
// into dst, which holds the open rows at times[:len(dst)] and has room
// for the rest: back to front, open rows first on equal times. dst may
// be times itself, merged last.
func mergeLate[T int64 | float64](dst []T, times []int64, late []T, lateT []int64, fill T) []T {
	i := len(dst) - 1
	dst = dst[:len(dst)+len(lateT)]
	for j, k := len(lateT)-1, len(dst)-1; j >= 0; k-- {
		if i >= 0 && times[i] > lateT[j] {
			dst[k], i = dst[i], i-1
			continue
		}
		dst[k] = fill
		if late != nil {
			dst[k] = late[j]
		}
		j--
	}
	return dst
}

// allCols lists every column index of the series.
func (s *memSeries) allCols() []int {
	cis := make([]int, len(s.names))
	for i := range cis {
		cis[i] = i
	}
	return cis
}

// closeHead writes the head as a sealed block without changing it: the
// open block closed as it is or, with late rows, the merged rows
// encoded once.
func (s *memSeries) closeHead() (*block, error) {
	if len(s.side.times) == 0 {
		return s.open.close(s.names)
	}
	times, cols, err := s.headColumns(s.allCols(), nil, nil)
	if err != nil {
		return nil, err
	}
	return encodeBlock(times, s.names, cols)
}

// resetHead empties the head, keeping its buffers.
func (s *memSeries) resetHead() {
	s.open.reset()
	s.side.times = s.side.times[:0]
	for i := range s.side.cols {
		s.side.cols[i] = s.side.cols[i][:0]
	}
}

// seal closes the head into an immutable block, appends it to the
// series history, and empties the head.
func (s *memSeries) seal() (*block, error) {
	b, err := s.closeHead()
	if err != nil {
		return nil, err
	}
	s.blocks = append(s.blocks, b)
	s.resetHead()
	return b, nil
}
