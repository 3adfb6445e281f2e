package tsdb

import (
	"context"
	"fmt"
	"slices"
	"sort"
)

// rawRun is one time-sorted source of rows for the raw SELECT merge: a
// decoded unit's selected columns (names), and the span of its rows in
// the query's time bounds.
type rawRun struct {
	*scratch
	names    []string
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

// appendRawRow renders the run's current row (skipping it when no
// selected field is present) and advances the cursor.
func appendRawRow(res *Result, r *rawRun) {
	t := r.times[r.pos]
	vals := make(map[string]float64, len(r.names))
	for ci, name := range r.names {
		if col := r.cols[ci]; col != nil && col[r.pos] == col[r.pos] {
			vals[name] = col[r.pos]
		}
	}
	r.pos++
	if len(vals) == 0 {
		return
	}
	res.Rows = append(res.Rows, Row{Time: t, Values: vals})
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

// execRaw materializes a raw SELECT: every unit decodes its selected
// fields into a sorted run, and a k-way merge emits rows in (time,
// series, ingest) order — the same order the row store produced. Like
// the aggregate scan it observes cancellation between units, never
// mid-unit.
func (db *DB) execRaw(ctx context.Context, q *Query) (*Result, error) {
	db.data.RLock()
	defer db.data.RUnlock()
	res := &Result{Measurement: q.Measurement, Columns: q.Fields}
	selectAll := len(q.Fields) == 1 && q.Fields[0] == "*"
	var runs []rawRun
	for _, u := range db.units(q) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tsdb: query: %w", err)
		}
		run := rawRun{scratch: scratchPool.Get().(*scratch), names: q.Fields}
		if selectAll {
			run.names = u.b.fieldNames()
		}
		var err error
		if run.pos, run.end, err = u.columns(run.names, q.From, q.To, run.scratch); err != nil {
			return nil, err
		}
		// A unit holding none of the selected fields has no row to give.
		if run.end > run.pos && slices.ContainsFunc(run.cols, func(c []float64) bool { return c != nil }) {
			runs = append(runs, run)
		}
	}
	total := 0
	for i := range runs {
		total += runs[i].end - runs[i].pos
	}
	if total > 0 {
		res.Rows = make([]Row, 0, total)
	}
	switch len(runs) {
	case 0:
	case 1:
		r := &runs[0]
		for r.pos < r.end {
			appendRawRow(res, r)
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
			appendRawRow(res, r)
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
		// Stabilise the column list.
		cols := map[string]bool{}
		for _, r := range res.Rows {
			for f := range r.Values {
				cols[f] = true
			}
		}
		// A fresh slice: Columns aliased q.Fields until here, and the
		// caller's query must come back unchanged.
		res.Columns = make([]string, 0, len(cols))
		for f := range cols {
			res.Columns = append(res.Columns, f)
		}
		sort.Strings(res.Columns)
	}
	return res, nil
}
