package tsdb

import (
	"context"
	"fmt"
	"slices"
	"sort"
)

// rawRun is one time-sorted source of rows for the raw SELECT merge: a
// decoded sealed block or series head, restricted to the query's time
// bounds and to the selected columns it actually carries.
type rawRun struct {
	times    []int64
	names    []string
	cols     [][]float64
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

// blockRawRun decodes the selected columns of a sealed block into a
// merge run: the timestamp column first, and no field at all when no
// row is in bounds. A block carrying none of the selected fields yields
// an empty run — none of its rows could contribute a row.
func blockRawRun(b *block, q *Query, selectAll bool) (rawRun, error) {
	var run rawRun
	times, err := b.decodeTimes(nil)
	if err != nil {
		return run, err
	}
	pos, end := timeBounds(times, q.From, q.To)
	if pos == end {
		return run, nil
	}
	for fi := range b.fields {
		name := b.fields[fi].name
		if !selectAll && !slices.Contains(q.Fields, name) {
			continue
		}
		col, err := b.decodeField(fi, nil)
		if err != nil {
			return run, err
		}
		run.names = append(run.names, name)
		run.cols = append(run.cols, col)
	}
	if len(run.names) > 0 {
		run.times, run.pos, run.end = times, pos, end
	}
	return run, nil
}

// headRawRun decodes the selected columns of a series head into a merge
// run, its late rows merged in; a field the head holds no value of
// joins no run.
func headRawRun(s *memSeries, q *Query, selectAll bool) (rawRun, error) {
	var run rawRun
	var cis []int
	for ci, name := range s.names {
		if selectAll || slices.Contains(q.Fields, name) {
			cis = append(cis, ci)
		}
	}
	times, cols, err := s.headColumns(cis, nil, nil)
	if err != nil {
		return run, err
	}
	for i, col := range cols {
		if col != nil {
			run.names = append(run.names, s.names[cis[i]])
			run.cols = append(run.cols, col)
		}
	}
	if len(run.names) > 0 {
		run.times = times
		run.pos, run.end = timeBounds(times, q.From, q.To)
	}
	return run, nil
}

// appendRawRow renders the run's current row (skipping it when no
// selected field is present) and advances the cursor.
func appendRawRow(res *Result, r *rawRun) {
	t := r.times[r.pos]
	vals := make(map[string]float64, len(r.names))
	for ci, name := range r.names {
		if v := r.cols[ci][r.pos]; v == v {
			vals[name] = v
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

// execRaw materializes a raw SELECT: per matching series, the
// overlapping sealed blocks decode into sorted runs and the head joins
// as a final run; a k-way merge emits rows in (time, series, ingest)
// order — the same order the row store produced. Like the aggregate
// scan it observes cancellation between blocks, never mid-block.
func (db *DB) execRaw(ctx context.Context, q *Query) (*Result, error) {
	db.data.RLock()
	defer db.data.RUnlock()
	res := &Result{Measurement: q.Measurement, Columns: q.Fields}
	m := db.measurements[q.Measurement]
	if m == nil {
		return res, nil
	}
	selectAll := len(q.Fields) == 1 && q.Fields[0] == "*"
	var runs []rawRun
	for _, s := range m.series {
		if !s.matchTags(q.TagFilter) {
			continue
		}
		for _, b := range s.blocks {
			if (q.From != 0 && b.maxT < q.From) || (q.To != 0 && b.minT > q.To) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("tsdb: query: %w", err)
			}
			run, err := blockRawRun(b, q, selectAll)
			if err != nil {
				return nil, err
			}
			if run.end > run.pos {
				runs = append(runs, run)
			}
		}
		if minT, maxT, ok := s.headRange(); ok && (q.From == 0 || maxT >= q.From) && (q.To == 0 || minT <= q.To) {
			run, err := headRawRun(s, q, selectAll)
			if err != nil {
				return nil, err
			}
			if run.end > run.pos {
				runs = append(runs, run)
			}
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
