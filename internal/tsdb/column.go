package tsdb

import (
	"slices"
	"sort"
	"sync"
)

// Columnar series storage. A series is identified by (measurement,
// canonical tag set) and holds its samples as a run of sealed compressed
// blocks plus a head that takes new rows: an open block (block.go),
// compressed as rows arrive, in arrival order. It seals at blockRows
// rows.
//
// A batch lands in time order, so only a row older than an earlier
// batch's arrives late; it marks the open block unsorted. A reader or a
// seal puts an unsorted head's rows in time order, equal times in
// arrival order: a row late at time t arrived after every row that was
// not, so this is ingest order among equal times.

// memSeries is one series: identity, sealed history, head. The open
// block's fields are the series' fields, in creation order.
type memSeries struct {
	key    string // canonical series key (appendSeriesKey form)
	tags   map[string]string
	fields map[string]int // field name -> index in open.fields
	blocks []*block
	open   openBlock
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

// insertRow adds one sample to the head, in arrival order.
func (s *memSeries) insertRow(t int64, fields []rowKV, in interner) {
	o := &s.open
	r := o.appendTime(t)
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
		o.put(ci, r, f.num)
	}
}

// unit is one run of a series' rows that a reader decodes whole: a
// sealed block, or a head — its open block.
type unit struct {
	b      *block
	head   bool
	footer bool // an aggregate folds the unit from its footers alone
}

// head is the series' head as a unit. Callers check it has rows.
func (s *memSeries) head() unit { return unit{b: &s.open.block, head: true} }

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
		if (q.From == 0 || u.b.maxT >= q.From) && (q.To == 0 || u.b.minT <= q.To) {
			us = append(us, u)
		}
	}
	for _, s := range m.series {
		if !s.matchTags(q.TagFilter) {
			continue
		}
		for _, b := range s.blocks {
			add(unit{b: b})
		}
		if s.open.rows > 0 {
			add(s.head())
		}
	}
	return us
}

// scratch holds a unit's decoded columns: one timestamp slice and one
// value slice per selected field, reused unit after unit and, through
// scratchPool, query after query. An unsorted head's decode also keeps
// its rows' scan order, the sort's merge target and a column in arrival
// order.
type scratch struct {
	times         []int64
	cols          [][]float64
	order, merged []rowTime
	spare         []float64
}

// rowTime is a row's time and its index in arrival order.
type rowTime struct {
	t int64
	r int
}

// sortRows sorts rows, a head's in arrival order, by time, stably, and
// returns them with the spare slice, buf having room for them. A head
// takes its late rows in runs — a backfill newest first, a restarted
// clock counting up again — so it is a natural merge sort: adjacent runs
// merge pairwise, the earlier first on equal times, one O(rows) pass a
// level.
func sortRows(rows, buf []rowTime) (sorted, spare []rowTime) {
	for {
		out := buf[:0]
		for i := 0; i < len(rows); {
			j := runEnd(rows, i)
			if j == len(rows) && i == 0 {
				return rows, buf
			}
			k := runEnd(rows, j)
			a, b := rows[i:j], rows[j:k]
			for len(a) > 0 && len(b) > 0 {
				if b[0].t < a[0].t {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			out, i = append(append(out, a...), b...), k
		}
		rows, buf = out, rows
	}
}

// runEnd returns where the run of rows from i ends: a strictly
// descending start reversed — it holds no equal times, so equal times
// keep their order — then the rows after it in time order.
func runEnd(rows []rowTime, i int) int {
	j := i + 1
	for j < len(rows) && rows[j].t < rows[j-1].t {
		j++
	}
	slices.Reverse(rows[i:min(j, len(rows))])
	for ; j < len(rows) && rows[j].t >= rows[j-1].t; j++ {
	}
	return min(j, len(rows))
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// columns decodes the unit's rows in scan order into sc: the times
// first, then — unless no row lies in [from, to] (0 = unbounded), the
// span [lo, hi) it returns — per name the field's column, NaN where a
// row has none and nil where the unit holds no value of it. An unsorted
// head's rows are sorted by time, equal times in arrival order. It only
// reads the unit, so readers sharing the data lock may call it.
func (u unit) columns(names []string, from, to int64, sc *scratch) (lo, hi int, err error) {
	// The scratch grows geometrically: a head gains a row a tick, and a
	// column sized to it exactly would not fit the next query's.
	n := u.b.rows
	sc.times = slices.Grow(sc.times[:0], n)[:n]
	if sc.times, err = u.b.decodeTimes(sc.times); err != nil {
		return 0, 0, err
	}
	if u.b.unsorted {
		sc.order = slices.Grow(sc.order[:0], n)[:n]
		for r, t := range sc.times {
			sc.order[r] = rowTime{t, r}
		}
		sc.order, sc.merged = sortRows(sc.order, slices.Grow(sc.merged[:0], n))
		for k, o := range sc.order {
			sc.times[k] = o.t
		}
	}
	if lo, hi = timeBounds(sc.times, from, to); lo == hi {
		return lo, hi, nil
	}
	if cap(sc.cols) < len(names) {
		sc.cols = make([][]float64, len(names))
	}
	sc.cols = sc.cols[:len(names)]
	for i, name := range names {
		fi := u.b.fieldIndex(name)
		if fi < 0 || u.b.fields[fi].count == 0 {
			sc.cols[i] = nil
			continue
		}
		col := slices.Grow(sc.cols[i][:0], n)[:n]
		if !u.b.unsorted {
			col, err = u.b.decodeField(fi, col)
		} else if sc.spare, err = u.b.decodeField(fi, sc.spare); err == nil {
			for k, o := range sc.order {
				col[k] = sc.spare[o.r]
			}
		}
		if err != nil {
			return 0, 0, err
		}
		sc.cols[i] = col
	}
	return lo, hi, nil
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
// open block closed as it is or, unsorted, its rows encoded once in
// scan order.
func (s *memSeries) closeHead() (*block, error) {
	if !s.open.unsorted {
		return s.open.close()
	}
	names := s.open.fieldNames()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if _, _, err := s.head().columns(names, 0, 0, sc); err != nil {
		return nil, err
	}
	return encodeBlock(sc.times, names, sc.cols)
}

// seal closes the head into an immutable block, appends it to the
// series history, and empties the head.
func (s *memSeries) seal() (*block, error) {
	b, err := s.closeHead()
	if err != nil {
		return nil, err
	}
	s.blocks = append(s.blocks, b)
	s.open.reset()
	return b, nil
}
