package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"pmove/internal/tsdb"
)

// refSeries is the generator's copy of one series, rows in arrival order.
type refSeries struct {
	meas, tag string
	times     []int64
	cols      [nFields][]float64
}

func (s *refSeries) add(p *tsdb.Point) {
	s.times = append(s.times, p.Time)
	for i, name := range fieldNames {
		s.cols[i] = append(s.cols[i], p.Fields[name])
	}
}

// refStore is the reference model the correctness checks fold over: the
// rows the generator emitted, grouped by series in creation order (the
// order the store uses to break timestamp ties in raw SELECTs). It is
// never appended to while another goroutine reads it: concurrent writers
// own one series each, and mixed_rw generates its writes before the
// reader starts.
type refStore struct {
	series []*refSeries
}

// newSeries adds a series with room for rows rows, so that the copy does
// not grow — and show up in a heap measurement — while a round runs.
func (r *refStore) newSeries(meas, tag string, rows int) *refSeries {
	s := &refSeries{meas: meas, tag: tag, times: make([]int64, 0, rows)}
	for i := range s.cols {
		s.cols[i] = make([]float64, 0, rows)
	}
	r.series = append(r.series, s)
	return s
}

func (r *refStore) rows() (n int64) {
	for _, s := range r.series {
		n += int64(len(s.times))
	}
	return n
}

func (r *refStore) match(q *stmt) []*refSeries {
	var out []*refSeries
	for _, s := range r.series {
		if s.meas == q.meas && (q.tag == "" || s.tag == q.tag) {
			out = append(out, s)
		}
	}
	return out
}

func fieldIndex(name string) int {
	for i, f := range fieldNames {
		if f == name {
			return i
		}
	}
	return -1
}

// floorWindow is the Euclidean floor of t to a multiple of w.
func floorWindow(t, w int64) int64 {
	q := t / w
	if t%w != 0 && t < 0 {
		q--
	}
	return q * w
}

// eval folds q over the reference. limit > 0 restricts every matching
// series to its first limit rows (mixed_rw checks a hot-measurement
// result against the state at a batch boundary).
func (r *refStore) eval(q *stmt, limit int) *tsdb.Result {
	if len(q.aggs) == 0 {
		return r.evalRaw(q, limit)
	}
	type state struct {
		samples [][]float64 // per aggregate
	}
	wins := map[int64]*state{}
	fidx := make([]int, len(q.aggs))
	for i, a := range q.aggs {
		fidx[i] = fieldIndex(a.field)
	}
	for _, s := range r.match(q) {
		n := len(s.times)
		if limit > 0 && limit < n {
			n = limit
		}
		for i := 0; i < n; i++ {
			t := s.times[i]
			if (q.from != 0 && t < q.from) || (q.to != 0 && t > q.to) {
				continue
			}
			w := int64(0)
			if q.groupBy > 0 {
				w = floorWindow(t, q.groupBy)
			}
			st := wins[w]
			if st == nil {
				st = &state{samples: make([][]float64, len(q.aggs))}
				wins[w] = st
			}
			for ai, fi := range fidx {
				st.samples[ai] = append(st.samples[ai], s.cols[fi][i])
			}
		}
	}
	keys := make([]int64, 0, len(wins))
	for w := range wins {
		keys = append(keys, w)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	res := &tsdb.Result{Measurement: q.meas}
	for _, a := range q.aggs {
		res.Columns = append(res.Columns, a.column())
	}
	for _, w := range keys {
		t := w
		if q.groupBy <= 0 {
			t = q.from
		}
		row := tsdb.Row{Time: t, Values: map[string]float64{}}
		for ai, a := range q.aggs {
			row.Values[a.column()] = foldSamples(a.fn, wins[w].samples[ai])
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func foldSamples(fn string, xs []float64) float64 {
	switch fn {
	case "count":
		return float64(len(xs))
	case "sum":
		return sum(xs)
	case "mean":
		return sum(xs) / float64(len(xs))
	case "min", "max":
		m := xs[0]
		for _, x := range xs[1:] {
			if (fn == "min" && x < m) || (fn == "max" && x > m) {
				m = x
			}
		}
		return m
	}
	pct, err := strconv.ParseFloat(fn[1:], 64)
	if err != nil || fn[0] != 'p' {
		return math.NaN()
	}
	return quantile(xs, pct/100)
}

func (r *refStore) evalRaw(q *stmt, limit int) *tsdb.Result {
	type rawRow struct {
		t      int64
		series int
		idx    int
	}
	var rows []rawRow
	matched := r.match(q)
	for si, s := range matched {
		n := len(s.times)
		if limit > 0 && limit < n {
			n = limit
		}
		for i := 0; i < n; i++ {
			t := s.times[i]
			if (q.from != 0 && t < q.from) || (q.to != 0 && t > q.to) {
				continue
			}
			rows = append(rows, rawRow{t, si, i})
		}
	}
	// Time order; equal timestamps by series creation, then arrival.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	res := &tsdb.Result{Measurement: q.meas, Columns: q.fields}
	for _, rr := range rows {
		vals := make(map[string]float64, len(q.fields))
		for _, f := range q.fields {
			vals[f] = matched[rr.series].cols[fieldIndex(f)][rr.idx]
		}
		res.Rows = append(res.Rows, tsdb.Row{Time: rr.t, Values: vals})
	}
	return res
}

func sameValue(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// sameResult reports how got differs from the reference result, nil when
// it does not.
func sameResult(got, want *tsdb.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, reference has %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if g.Time != w.Time {
			return fmt.Errorf("row %d at time %d, reference %d", i, g.Time, w.Time)
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Errorf("row %d has %d values, reference %d", i, len(g.Values), len(w.Values))
		}
		for col, wv := range w.Values {
			gv, ok := g.Values[col]
			if !ok || !sameValue(gv, wv) {
				return fmt.Errorf("row %d %s = %v, reference %v", i, col, gv, wv)
			}
		}
	}
	return nil
}

// sameSeries checks a dashboard.FetchSeriesContext reply — the (time,
// value) pairs of the statement's single aggregate column.
func sameSeries(ts []int64, vs []float64, want *tsdb.Result, col string) error {
	if len(ts) != len(want.Rows) {
		return fmt.Errorf("%d pairs, reference has %d rows", len(ts), len(want.Rows))
	}
	for i, w := range want.Rows {
		if ts[i] != w.Time || !sameValue(vs[i], w.Values[col]) {
			return fmt.Errorf("pair %d = (%d, %v), reference (%d, %v)", i, ts[i], vs[i], w.Time, w.Values[col])
		}
	}
	return nil
}
