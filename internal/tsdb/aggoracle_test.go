package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pmove/internal/introspect"
)

// Reference-oracle property suite: 1k seeded cases compare the
// parallel aggregation engine against a naive O(n) reference over
// randomly generated points — every aggregate × window × tag-filter
// combination. Values are dyadic rationals (k/4 with small k), so
// sum/count/min/max must match EXACTLY regardless of how the engine
// stripes and merges the fold; mean and percentiles get a 1e-9
// relative tolerance.

// refExecute is the naive single-pass reference implementation of the
// aggregate semantics (documented in DESIGN.md): a point is relevant
// if it passes the time bounds and tag filter; a window emits a row
// iff at least one planned field observed at least one sample; count
// columns are always present in emitted rows, other aggregates only
// when their field has samples.
func refExecute(points []Point, q *Query) *Result {
	res := &Result{Measurement: q.Measurement, Columns: make([]string, len(q.Aggregates))}
	for i, a := range q.Aggregates {
		res.Columns[i] = a.Column()
	}
	type state struct{ vals map[string][]float64 }
	wins := map[int64]*state{}
	fields := map[string]bool{}
	for _, a := range q.Aggregates {
		fields[a.Field] = true
	}
	for _, p := range points {
		if p.Measurement != q.Measurement {
			continue
		}
		if q.From != 0 && p.Time < q.From {
			continue
		}
		if q.To != 0 && p.Time > q.To {
			continue
		}
		ok := true
		for k, v := range q.TagFilter {
			if p.Tags[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		win := int64(0)
		if q.GroupBy > 0 {
			d := p.Time / q.GroupBy
			if p.Time%q.GroupBy != 0 && p.Time < 0 {
				d--
			}
			win = d * q.GroupBy
		}
		st := wins[win]
		if st == nil {
			st = &state{vals: map[string][]float64{}}
			wins[win] = st
		}
		any := false
		for f := range fields {
			if v, ok := p.Fields[f]; ok {
				st.vals[f] = append(st.vals[f], v)
				any = true
			}
		}
		_ = any
	}
	var order []int64
	for w, st := range wins {
		n := 0
		for _, vs := range st.vals {
			n += len(vs)
		}
		if n > 0 {
			order = append(order, w)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, w := range order {
		st := wins[w]
		t := w
		if q.GroupBy <= 0 {
			t = q.From
		}
		row := Row{Time: t, Values: map[string]float64{}}
		for _, a := range q.Aggregates {
			vs := st.vals[a.Field]
			if a.Fn == "count" {
				row.Values[a.Column()] = float64(len(vs))
				continue
			}
			if len(vs) == 0 {
				continue
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			switch a.Fn {
			case "min":
				row.Values[a.Column()] = sorted[0]
			case "max":
				row.Values[a.Column()] = sorted[len(sorted)-1]
			case "sum", "mean":
				// Left-to-right fold in insertion order — a different
				// association than the engine's striped merge, which is
				// the point: dyadic values make both exact.
				s := 0.0
				for _, v := range vs {
					s += v
				}
				if a.Fn == "mean" {
					s /= float64(len(vs))
				}
				row.Values[a.Column()] = s
			case "p":
				row.Values[a.Column()] = refQuantile(sorted, a.Pct/100)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// refQuantile mirrors the linear-interpolation estimator.
func refQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// dyadic returns a random value exactly representable as k/4 — sums of
// hundreds of these are exact in float64 under any association.
func dyadic(rng *rand.Rand) float64 {
	return float64(rng.Intn(2001)-1000) / 4.0
}

func genCase(rng *rand.Rand) ([]Point, *Query) {
	meas := fmt.Sprintf("m%d", rng.Intn(3))
	fieldPool := []string{"f1", "f2", "f3"}
	tagVals := []string{"x", "y"}
	hostVals := []string{"a", "b", "c"}
	n := 1 + rng.Intn(600)
	points := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := Point{
			Measurement: meas,
			Time:        int64(rng.Intn(20001) - 10000),
			Tags: map[string]string{
				"tag":  tagVals[rng.Intn(len(tagVals))],
				"host": hostVals[rng.Intn(len(hostVals))],
			},
			Fields: map[string]float64{},
		}
		for _, f := range fieldPool {
			if rng.Intn(3) > 0 {
				p.Fields[f] = dyadic(rng)
			}
		}
		if len(p.Fields) == 0 {
			p.Fields["f1"] = dyadic(rng)
		}
		points = append(points, p)
	}
	fns := []string{"mean", "min", "max", "sum", "count", "p"}
	pcts := []float64{0, 25, 50, 90, 99, 100}
	q := &Query{Measurement: meas, TagFilter: map[string]string{}}
	na := 1 + rng.Intn(4)
	for i := 0; i < na; i++ {
		a := Aggregate{Fn: fns[rng.Intn(len(fns))], Field: fieldPool[rng.Intn(len(fieldPool))]}
		if a.Fn == "p" {
			a.Pct = pcts[rng.Intn(len(pcts))]
		}
		q.Aggregates = append(q.Aggregates, a)
	}
	switch rng.Intn(4) {
	case 1:
		q.TagFilter["tag"] = tagVals[rng.Intn(len(tagVals))]
	case 2:
		q.TagFilter["host"] = hostVals[rng.Intn(len(hostVals))]
	case 3:
		q.TagFilter["tag"] = tagVals[rng.Intn(len(tagVals))]
		q.TagFilter["host"] = hostVals[rng.Intn(len(hostVals))]
	}
	if rng.Intn(2) == 0 {
		q.From = int64(rng.Intn(20001) - 10000)
	}
	if rng.Intn(2) == 0 {
		q.To = int64(rng.Intn(20001) - 10000)
	}
	if rng.Intn(3) > 0 {
		q.GroupBy = int64(1 + rng.Intn(5000))
	}
	return points, q
}

// compareResults asserts engine output matches the reference: exact
// for count/min/max/sum, 1e-9 relative for mean/pNN.
func compareResults(t *testing.T, caseID int, q *Query, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("case %d %q: %d rows, reference %d", caseID, q.String(), len(got.Rows), len(want.Rows))
	}
	exact := map[string]bool{"count": true, "min": true, "max": true, "sum": true}
	for i := range want.Rows {
		gr, wr := got.Rows[i], want.Rows[i]
		if gr.Time != wr.Time {
			t.Fatalf("case %d %q row %d: time %d, reference %d", caseID, q.String(), i, gr.Time, wr.Time)
		}
		if len(gr.Values) != len(wr.Values) {
			t.Fatalf("case %d %q row %d: columns %v, reference %v", caseID, q.String(), i, gr.Values, wr.Values)
		}
		for _, a := range q.Aggregates {
			col := a.Column()
			wv, wok := wr.Values[col]
			gv, gok := gr.Values[col]
			if wok != gok {
				t.Fatalf("case %d %q row %d col %s: presence %v, reference %v", caseID, q.String(), i, col, gok, wok)
			}
			if !wok {
				continue
			}
			if exact[a.Fn] {
				if gv != wv {
					t.Fatalf("case %d %q row %d col %s: got %v, reference %v (exact)", caseID, q.String(), i, col, gv, wv)
				}
				continue
			}
			tol := 1e-9 * math.Max(1, math.Abs(wv))
			if math.Abs(gv-wv) > tol {
				t.Fatalf("case %d %q row %d col %s: got %v, reference %v (tol %g)", caseID, q.String(), i, col, gv, wv, tol)
			}
		}
	}
}

func TestAggregateOracle1k(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e3779b9))
	workerChoices := []int{0, 1, 4, 16}
	for c := 0; c < 1000; c++ {
		points, q := genCase(rng)
		db := New()
		if err := db.WriteBatchContext(context.Background(), points); err != nil {
			t.Fatalf("case %d: batch write: %v", c, err)
		}
		want := refExecute(points, q)
		workers := workerChoices[rng.Intn(len(workerChoices))]
		got, err := db.ExecuteContext(context.Background(), QueryRequest{
			Query: q, Workers: workers, SkipCache: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatalf("case %d %q: %v", c, q.String(), err)
		}
		compareResults(t, c, q, got, want)
		// The statement round-trips through the parser to the same result.
		got2, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: q.String()})
		if err != nil {
			t.Fatalf("case %d reparse %q: %v", c, q.String(), err)
		}
		compareResults(t, c, q, got2, want)
	}
}

// TestAggregateWorkerEquivalence pins one dataset and asserts the
// sequential scan and every parallel width produce identical results —
// the merge order is deterministic, not schedule-dependent.
func TestAggregateWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := New()
	var pts []Point
	for i := 0; i < 30000; i++ {
		pts = append(pts, Point{
			Measurement: "m",
			Time:        int64(rng.Intn(1 << 20)),
			Tags:        map[string]string{"tag": []string{"x", "y"}[rng.Intn(2)]},
			Fields:      map[string]float64{"f": dyadic(rng)},
		})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Measurement: "m",
		Aggregates: []Aggregate{
			{Fn: "count", Field: "f"}, {Fn: "sum", Field: "f"},
			{Fn: "min", Field: "f"}, {Fn: "max", Field: "f"},
			{Fn: "mean", Field: "f"}, {Fn: "p", Field: "f", Pct: 99},
		},
		TagFilter: map[string]string{"tag": "x"},
		GroupBy:   1 << 14,
	}
	base, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: 1, SkipCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("expected rows")
	}
	for _, w := range []int{2, 4, 16} {
		got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: w, SkipCache: true})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, w, q, got, base)
	}
}

// TestPercentileOracle: percentiles with the mean and sum of the same
// field agree bit for bit with the reference whichever way a unit is
// read — from its footers with its values decoded alone (sealed blocks
// and a head without late rows, in one window), or decoded row by row (a
// head with late rows, windows narrower than a block, bounds that cut a
// block) — over sparse fields, with one worker and four. Every merged
// state of a field that keeps samples holds exactly count of them.
func TestPercentileOracle(t *testing.T) {
	const base = 1 << 20 // a multiple of every block-aligned window below
	rng := rand.New(rand.NewSource(34))
	var pts []Point
	for _, tag := range []string{"a", "b", "c"} {
		rows := 2*blockRows + 700
		if tag == "c" {
			rows = 900 // a head alone
		}
		series := make([]Point, rows)
		t := int64(base)
		for r := range series {
			if r > 0 && rng.Intn(50) > 0 {
				t++ // else a duplicate of the previous row's time
			}
			p := Point{Measurement: "m", Time: t, Tags: map[string]string{"tag": tag}, Fields: map[string]float64{}}
			if rng.Intn(4) > 0 {
				p.Fields["f"] = dyadic(rng)
			}
			if rng.Intn(2) > 0 || len(p.Fields) == 0 {
				p.Fields["g"] = dyadic(rng)
			}
			series[r] = p
		}
		if tag == "b" {
			// Rows of the head arrive up to 16 places late: a side run.
			for i := 2*blockRows + 16; i < rows; i++ {
				if rng.Intn(10) == 0 {
					k := 1 + rng.Intn(16)
					series[i], series[i-k] = series[i-k], series[i]
				}
			}
		}
		pts = append(pts, series...)
	}
	db := New()
	in := introspect.New()
	db.SetIntrospection(in)
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	aggs := []Aggregate{
		{Fn: "p", Field: "f", Pct: 0}, {Fn: "p", Field: "f", Pct: 50}, {Fn: "p", Field: "f", Pct: 99.9},
		{Fn: "p", Field: "f", Pct: 100}, {Fn: "mean", Field: "f"}, {Fn: "sum", Field: "f"},
		{Fn: "count", Field: "f"}, {Fn: "p", Field: "g", Pct: 50},
	}
	end := int64(base + 2*blockRows + 700)
	bounds := []struct{ from, to int64 }{
		{0, 0}, {base + 100, 0}, {0, base + blockRows + 300}, {base + 300, base + 2*blockRows + 50},
		{base + blockRows, base + 2*blockRows - 1}, {base + 2*blockRows + 10, end - 10},
	}
	n := 0
	for _, groupBy := range []int64{0, blockRows, 3 * blockRows, 1000, 4095} {
		for _, b := range bounds {
			for _, tag := range []string{"", "a", "b", "c"} {
				for _, workers := range []int{1, 4} {
					q := &Query{Measurement: "m", Aggregates: aggs, TagFilter: map[string]string{},
						From: b.from, To: b.to, GroupBy: groupBy}
					if tag != "" {
						q.TagFilter["tag"] = tag
					}
					got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: workers, SkipCache: true})
					if err != nil {
						t.Fatalf("%q: %v", q.String(), err)
					}
					compareBits(t, q, got, refExecute(pts, q))

					plan := planAggregates(q)
					db.data.RLock()
					merged, _, err := db.scanAggregate(context.Background(), q, plan, workers)
					db.data.RUnlock()
					if err != nil {
						t.Fatal(err)
					}
					for wi := range merged.wins {
						for fi, keep := range plan.keepSamples {
							if fa := &merged.states[wi*len(plan.fields)+fi]; keep && uint64(len(fa.samples)) != fa.count {
								t.Fatalf("%q window %d field %s: %d samples, count %d", q.String(), merged.wins[wi], plan.fields[fi], len(fa.samples), fa.count)
							}
						}
					}
					n++
				}
			}
		}
	}
	// Both ways of reading a unit were taken.
	snap := in.Metrics().Snapshot()
	if f, d, h := snap.CounterValue("query.units_footer"), snap.CounterValue("query.units_decoded"), snap.CounterValue("query.units_head"); f == 0 || d == 0 || h == 0 {
		t.Fatalf("%d queries: units footer %d decoded %d head %d, want each > 0", n, f, d, h)
	}
}

// compareBits asserts got equals the reference bit for bit: the same
// rows, times and columns, every value the same float64.
func compareBits(t *testing.T, q *Query, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%q: %d rows, reference %d", q.String(), len(got.Rows), len(want.Rows))
	}
	for i, wr := range want.Rows {
		gr := got.Rows[i]
		if gr.Time != wr.Time || len(gr.Values) != len(wr.Values) {
			t.Fatalf("%q row %d: %d %v, reference %d %v", q.String(), i, gr.Time, gr.Values, wr.Time, wr.Values)
		}
		for col, wv := range wr.Values {
			if gv, ok := gr.Values[col]; !ok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%q row %d col %s: %v (present %v), reference %v", q.String(), i, col, gv, ok, wv)
			}
		}
	}
}
