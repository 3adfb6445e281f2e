package tsdb

import (
	"context"
	"fmt"
	"slices"
	"sort"
)

// rawRun is one time-sorted source of rows for the raw SELECT merge: a
// decoded unit's columns, aligned with the table's, and the span of its
// rows in the query's time bounds.
type rawRun struct {
	*scratch
	pos, end int
}

// timeBounds binary-searches the [lo, hi) index span of times matching
// the query's From/To bounds (0 = unbounded, as everywhere else).
func timeBounds(times []int64, from, to int64) (lo, hi int) {
	lo, hi = 0, len(times)
	if from != 0 {
		lo = sort.Search(len(times), func(i int) bool { return times[i] >= from })
	}
	if to != 0 {
		hi = sort.Search(len(times), func(i int) bool { return times[i] > to })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// appendRawRow appends the run's current row unless none of its cells
// is present, and advances the cursor.
func appendRawRow(t *table, r *rawRun) {
	i := r.pos
	r.pos++
	if !slices.ContainsFunc(r.cols, func(c []float64) bool { return c != nil && c[i] == c[i] }) {
		return
	}
	t.Times = append(t.Times, r.times[i])
	for ci, c := range r.cols {
		v := absent
		if c != nil && c[i] == c[i] {
			v = c[i]
		}
		t.Cols[ci] = append(t.Cols[ci], v)
	}
}

// runHeapDown restores the min-heap property from index i. The heap
// orders run indices by (current time, run index), so equal timestamps
// resolve deterministically: series creation order, then block order,
// then head — which within one series is ingest order.
func runHeapDown(h []int, i int, runs []rawRun) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && runLess(runs, h[l], h[small]) {
			small = l
		}
		if r < len(h) && runLess(runs, h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

func runLess(runs []rawRun, a, b int) bool {
	ta, tb := runs[a].times[runs[a].pos], runs[b].times[runs[b].pos]
	return ta < tb || (ta == tb && a < b)
}

// execRaw materializes a raw SELECT: every unit decodes the selected
// fields — SELECT *'s the sorted union of its units' — into a sorted run,
// and a k-way merge emits rows in (time, series, ingest) order — the same
// order the row store produced. Like the aggregate scan it observes
// cancellation between units, never mid-unit.
func (db *DB) execRaw(ctx context.Context, q *Query) (table, error) {
	db.data.RLock()
	defer db.data.RUnlock()
	units := db.units(q)
	names := q.Fields
	selectAll := len(q.Fields) == 1 && q.Fields[0] == "*"
	if selectAll {
		// A fresh slice: the caller's query must come back unchanged.
		names = []string{}
		for _, u := range units {
			for _, f := range u.b.fieldNames() {
				if i, found := slices.BinarySearch(names, f); !found {
					names = slices.Insert(names, i, f)
				}
			}
		}
	}
	var runs []rawRun
	total := 0
	for _, u := range units {
		if err := ctx.Err(); err != nil {
			return table{}, fmt.Errorf("tsdb: query: %w", err)
		}
		run := rawRun{scratch: scratchPool.Get().(*scratch)}
		var err error
		if run.pos, run.end, err = u.columns(names, q.From, q.To, run.scratch); err != nil {
			return table{}, err
		}
		// A unit holding none of the selected fields has no row to give.
		if run.end > run.pos && slices.ContainsFunc(run.cols, func(c []float64) bool { return c != nil }) {
			runs = append(runs, run)
			total += run.end - run.pos
		}
	}
	t := newTable(q.Measurement, names, total)
	switch len(runs) {
	case 0:
	case 1:
		r := &runs[0]
		for r.pos < r.end {
			appendRawRow(&t, r)
		}
	default:
		h := make([]int, len(runs))
		for i := range runs {
			h[i] = i
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			runHeapDown(h, i, runs)
		}
		for len(h) > 0 {
			r := &runs[h[0]]
			appendRawRow(&t, r)
			if r.pos >= r.end {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 0 {
				runHeapDown(h, 0, runs)
			}
		}
	}
	for i := range runs { // their rows are out: the scratch goes back
		scratchPool.Put(runs[i].scratch)
	}
	if selectAll {
		// SELECT * lists the fields its rows hold a value of.
		kept := 0
		for ci, col := range t.Cols {
			if slices.ContainsFunc(col, func(v float64) bool { return !isAbsent(v) }) {
				t.Columns[kept], t.Cols[kept] = t.Columns[ci], col
				kept++
			}
		}
		t.Columns, t.Cols = t.Columns[:kept], t.Cols[:kept]
	}
	return t, nil
}
