package tsdb

import (
	"math"
	"sort"
	"sync"
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
	cols  [][]float64 // as long as times, aligned with the open block's fields; columns past the end are absent
}

// memSeries is one series: identity, sealed history, head. The open
// block's fields are the series' fields, in creation order.
type memSeries struct {
	key    string // canonical series key (appendSeriesKey form)
	tags   map[string]string
	fields map[string]int // field name -> index in open.fields
	blocks []*block
	open   openBlock
	side   sideRun
}

// measurement groups the series of one measurement name.
type measurement struct {
	name   string
	series []*memSeries // creation order (the scan tie-break)
	byKey  map[string]*memSeries
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
	i := len(s.open.fields)
	s.fields[name] = i
	s.open.addField(name)
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
	if o.fields == nil { // a new series: room for its first row's fields
		o.fields, o.cols = make([]blockField, 0, len(fields)), make([]openCol, 0, len(fields))
	}
	for i, f := range fields {
		// A series fed in one key order finds field i in column i; any
		// other row looks its columns up.
		ci := i
		if ci >= len(o.fields) || o.fields[ci].name != f.key {
			ci = s.fieldCol(f.key, in)
		}
		if !late {
			o.put(ci, r, f.num)
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

// unit is one time-sorted run of a series' rows that a reader decodes
// whole: a sealed block, or a head — its open block, with its late rows
// when it has any.
type unit struct {
	b      *block
	side   *sideRun // the head's late rows; nil for a block or a head without any
	minT   int64    // the first row's time: a late row can precede b's
	head   bool
	footer bool // an aggregate folds the unit from its footers alone
}

// head is the series' head as a unit. Callers check it has rows.
func (s *memSeries) head() unit {
	u := unit{b: &s.open.block, minT: s.open.minT, head: true}
	if len(s.side.times) > 0 {
		u.side, u.minT = &s.side, min(u.minT, s.side.times[0])
	}
	return u
}

// units lists the units a query reads, in scan order: matching series in
// creation order, each series' blocks in seal order, then its head —
// every unit whose time range meets the query's bounds (0 = unbounded).
// Callers hold db.data shared, which keeps the heads' units current.
func (db *DB) units(q *Query) []unit {
	m := db.measurements[q.Measurement]
	if m == nil {
		return nil
	}
	var us []unit
	add := func(u unit) {
		if (q.From == 0 || u.b.maxT >= q.From) && (q.To == 0 || u.minT <= q.To) {
			us = append(us, u)
		}
	}
	for _, s := range m.series {
		if !s.matchTags(q.TagFilter) {
			continue
		}
		for _, b := range s.blocks {
			add(unit{b: b, minT: b.minT})
		}
		if s.open.rows > 0 {
			add(s.head())
		}
	}
	return us
}

// scratch holds a unit's decoded columns: one timestamp slice and one
// value slice per selected field, reused unit after unit and, through
// scratchPool, query after query.
type scratch struct {
	times []int64
	cols  [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// columns decodes the unit's rows in scan order into sc: the times
// first, then — unless no row lies in [from, to] (0 = unbounded), the
// span [lo, hi) it returns — per name the field's column, NaN where a
// row has none and nil where the unit holds no value of it. A head's
// late rows merge in by time, after the open rows at their time. It only
// reads the unit, so readers sharing the data lock may call it.
func (u unit) columns(names []string, from, to int64, sc *scratch) (lo, hi int, err error) {
	var lateT []int64
	if u.side != nil {
		lateT = u.side.times
	}
	n := u.b.rows + len(lateT)
	if cap(sc.times) < n {
		sc.times = make([]int64, n)
	}
	if sc.times, err = u.b.decodeTimes(sc.times); err != nil {
		return 0, 0, err
	}
	sc.times = mergeTimes(sc.times, lateT)
	if lo, hi = timeBounds(sc.times, from, to); lo == hi {
		return lo, hi, nil
	}
	if cap(sc.cols) < len(names) {
		sc.cols = make([][]float64, len(names))
	}
	sc.cols = sc.cols[:len(names)]
	for i, name := range names {
		fi := u.b.fieldIndex(name)
		var late []float64
		if fi >= 0 && u.side != nil && fi < len(u.side.cols) {
			late = u.side.cols[fi]
		}
		if fi < 0 || (u.b.fields[fi].count == 0 && late == nil) {
			sc.cols[i] = nil
			continue
		}
		col := sc.cols[i]
		if cap(col) < n {
			col = make([]float64, n)
		}
		if col, err = u.b.decodeField(fi, col); err != nil {
			return 0, 0, err
		}
		sc.cols[i] = mergeCol(col, sc.times, late, lateT)
	}
	return lo, hi, nil
}

// mergeTimes merges the late times lateT into times, which holds the
// open rows' and has room for the rest: back to front, open rows first
// on equal times.
func mergeTimes(times, lateT []int64) []int64 {
	i := len(times) - 1
	times = times[:len(times)+len(lateT)]
	for j, k := len(lateT)-1, len(times)-1; j >= 0; k-- {
		if i >= 0 && times[i] > lateT[j] {
			times[k], i = times[i], i-1
		} else {
			times[k], j = lateT[j], j-1
		}
	}
	return times
}

// mergeCol spreads col, a field's open rows, over the merged times,
// putting the late rows' cells late (nil: absent) in their slots: back
// to front, a slot is the next late row's when it has that row's time,
// since equal times put the late rows last.
func mergeCol(col []float64, times []int64, late []float64, lateT []int64) []float64 {
	i := len(col) - 1
	col = col[:len(times)]
	for j, k := len(lateT)-1, len(times)-1; j >= 0; k-- {
		if times[k] != lateT[j] {
			col[k], i = col[i], i-1
			continue
		}
		col[k] = math.NaN()
		if late != nil {
			col[k] = late[j]
		}
		j--
	}
	return col
}

// since decodes every field of the unit (names) and returns its rows at
// or after cutoff, and how many rows precede them.
func (u unit) since(names []string, cutoff int64) ([]int64, [][]float64, int, error) {
	var sc scratch
	if _, _, err := u.columns(names, 0, 0, &sc); err != nil {
		return nil, nil, 0, err
	}
	n := sort.Search(len(sc.times), func(i int) bool { return sc.times[i] >= cutoff })
	for i, col := range sc.cols {
		if col != nil {
			sc.cols[i] = col[n:]
		}
	}
	return sc.times[n:], sc.cols, n, nil
}

// closeHead writes the head as a sealed block without changing it: the
// open block closed as it is or, with late rows, the merged rows
// encoded once.
func (s *memSeries) closeHead() (*block, error) {
	if len(s.side.times) == 0 {
		return s.open.close()
	}
	names := s.open.fieldNames()
	var sc scratch
	if _, _, err := s.head().columns(names, 0, 0, &sc); err != nil {
		return nil, err
	}
	return encodeBlock(sc.times, names, sc.cols)
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
