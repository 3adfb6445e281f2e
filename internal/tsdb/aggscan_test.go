package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pmove/internal/introspect"
)

// Tests of the scan kernels between a sealed block and a merged window
// row: window arithmetic at the int64 edges, allocation behaviour of the
// decode+fold, the per-query unit counters, and cancellation of a raw
// SELECT between blocks.

// TestWindowEdges: timestamps at both ends of int64 under intervals up
// to the whole range must land in the windows the reference puts them
// in — including the window holding math.MinInt64, whose start wraps —
// with no run left empty or endless by win+GroupBy overflowing.
func TestWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edges := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 999, math.MinInt64 + 1000,
		-1001, -1000, -1, 1, 999, 1000,
		math.MaxInt64 - 1000, math.MaxInt64 - 999, math.MaxInt64 - 1, math.MaxInt64,
	}
	var pts []Point
	add := func(tag string, ts int64) {
		pts = append(pts, Point{Measurement: "m", Time: ts, Tags: map[string]string{"tag": tag},
			Fields: map[string]float64{"f": dyadic(rng)}})
	}
	// Series x seals one block that spans all of int64 and keeps a head;
	// series y is a head only, on the same edges.
	for i := 0; i < blockRows+200; i++ {
		switch {
		case i%300 == 0:
			add("x", edges[rng.Intn(len(edges))])
		case i%2 == 0:
			add("x", math.MinInt64+int64(rng.Intn(5000)))
		default:
			add("x", math.MaxInt64-int64(rng.Intn(5000)))
		}
	}
	for _, ts := range edges {
		add("x", ts)
		add("y", ts)
	}
	db := New()
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	aggs := []Aggregate{{Fn: "count", Field: "f"}, {Fn: "sum", Field: "f"}, {Fn: "min", Field: "f"},
		{Fn: "max", Field: "f"}, {Fn: "p", Field: "f", Pct: 50}}
	bounds := []struct{ from, to int64 }{
		{0, 0}, {math.MinInt64, math.MaxInt64}, {math.MinInt64 + 1, 0}, {0, math.MaxInt64 - 1},
		{math.MinInt64, math.MinInt64 + 1000}, {math.MaxInt64 - 1000, math.MaxInt64}, {-1000, 1000},
	}
	n := 0
	for _, groupBy := range []int64{0, 1, 7, 1000, 4096, 1 << 40, 1 << 62, math.MaxInt64 - 1, math.MaxInt64} {
		for _, b := range bounds {
			for _, workers := range []int{1, 4} {
				q := &Query{Measurement: "m", Aggregates: aggs[:4], TagFilter: map[string]string{},
					From: b.from, To: b.to, GroupBy: groupBy}
				if n%3 == 0 {
					q.Aggregates = aggs // percentiles: footer units decode their values
				}
				if n%4 == 0 {
					q.TagFilter["tag"] = "x"
				}
				got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: workers, SkipCache: true})
				if err != nil {
					t.Fatalf("group by %d [%d,%d]: %v", groupBy, b.from, b.to, err)
				}
				compareResults(t, n, q, got, refExecute(pts, q))
				n++
			}
		}
	}
}

// TestScanUnitAllocations: decoding and folding a block allocates by
// the window, never by the row, and not at all once the scratch and the
// partial have been through one unit — nor does a head without late
// rows, folded from its footers or decoded.
func TestScanUnitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	blk := telemetryBlock(t)
	u := unit{b: blk}
	const step = telemetryStep
	scan := func(q *Query, fresh bool) float64 {
		plan := planAggregates(q)
		var sc scratch
		var out partial
		run := func() {
			if fresh {
				out = partial{}
			}
			if err := scanUnit(u, q, plan, &sc, &out); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch
		return testing.AllocsPerRun(20, run)
	}
	sum := []Aggregate{{Fn: "sum", Field: "f0"}, {Fn: "max", Field: "f3"}}
	if n := scan(&Query{Aggregates: sum}, false); n != 0 {
		t.Errorf("whole block, no GROUP BY, warm: %v allocations, want 0", n)
	}
	windows := float64(blockRows / 16)
	if n := scan(&Query{Aggregates: sum, GroupBy: 16 * step}, false); n != 0 {
		t.Errorf("16-row windows, warm: %v allocations, want 0", n)
	}
	// A fresh partial grows by doubling: O(log windows) for each of its
	// two slices, nowhere near one per window, let alone per row.
	if n := scan(&Query{Aggregates: sum, GroupBy: 16 * step}, true); n == 0 || n > windows/4 {
		t.Errorf("16-row windows, fresh partial: %v allocations, want 1..%v", n, windows/4)
	}
	// Samples append a run at a time: one gap-free window is one append.
	if n := scan(&Query{Aggregates: []Aggregate{{Fn: "p", Field: "f0", Pct: 99}}}, false); n == 0 || n > 2*math.Log2(blockRows) {
		t.Errorf("p99 over the block: %v allocations, want 1..%v", n, 2*math.Log2(blockRows))
	}
	// The same rows in a head: one more unit, read in place.
	s := &memSeries{fields: map[string]int{}}
	times, names, cols := telemetryBlockInput(rand.New(rand.NewSource(1)))
	for _, name := range names {
		s.fieldCol(name, interner{})
	}
	s.open.appendRows(times, cols)
	u = s.head()
	for _, footer := range []bool{true, false} {
		u.footer = footer
		if n := scan(&Query{Aggregates: sum}, false); n != 0 {
			t.Errorf("head (footer %v), no GROUP BY, warm: %v allocations, want 0", footer, n)
		}
	}
	if n := scan(&Query{Aggregates: sum, GroupBy: 16 * step}, false); n != 0 {
		t.Errorf("head, 16-row windows, warm: %v allocations, want 0", n)
	}
}

// TestQueryUnitCounters: every unit of an aggregate scan is counted
// once, by how it was answered, and a block-aligned whole-range mean
// decodes nothing — a head without late rows folds from its footers
// too.
func TestQueryUnitCounters(t *testing.T) {
	db := New()
	in := introspect.New()
	db.SetIntrospection(in)
	const blocks, headRows = 3, 100
	var pts []Point
	for _, tag := range []string{"a", "b"} {
		for i := 0; i < blocks*blockRows+headRows; i++ {
			pts = append(pts, Point{Measurement: "m", Time: int64(i), Tags: map[string]string{"tag": tag},
				Fields: map[string]float64{"f": float64(i % 17)}})
		}
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	var footer, decoded, head uint64
	exec := func(stmt string, wantUnits uint64) (dFooter, dDecoded, dHead uint64) {
		t.Helper()
		if _, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: stmt, SkipCache: true}); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		snap := in.Metrics().Snapshot()
		f, d, h := snap.CounterValue("query.units_footer"), snap.CounterValue("query.units_decoded"), snap.CounterValue("query.units_head")
		dFooter, dDecoded, dHead = f-footer, d-decoded, h-head
		footer, decoded, head = f, d, h
		if dFooter+dDecoded+dHead != wantUnits {
			t.Fatalf("%s: footer %d + decoded %d + head %d units, want %d in all", stmt, dFooter, dDecoded, dHead, wantUnits)
		}
		return
	}
	if f, d, h := exec(`SELECT mean("f") FROM "m"`, 2*(blocks+1)); f != 2*(blocks+1) || d != 0 || h != 0 {
		t.Fatalf("whole-range mean: footer %d decoded %d head %d, want %d 0 0", f, d, h, 2*(blocks+1))
	}
	if f, d, h := exec(fmt.Sprintf(`SELECT mean("f") FROM "m" GROUP BY time(%dns)`, blockRows), 2*(blocks+1)); f != 2*(blocks+1) || d != 0 || h != 0 {
		t.Fatalf("block-aligned windows: footer %d decoded %d head %d, want %d 0 0", f, d, h, 2*(blocks+1))
	}
	// A bound inside the head decodes it.
	stmt := fmt.Sprintf(`SELECT sum("f") FROM "m" WHERE "tag"='a' AND time >= %d`, blocks*blockRows+10)
	if f, d, h := exec(stmt, 1); f != 0 || d != 0 || h != 1 {
		t.Fatalf("bound inside the head: footer %d decoded %d head %d, want 0 0 1", f, d, h)
	}
	if f, d, h := exec(`SELECT p50("f") FROM "m" WHERE "tag"='a'`, blocks+1); f != blocks+1 || d != 0 || h != 0 {
		t.Fatalf("percentile: footer %d decoded %d head %d, want %d 0 0", f, d, h, blocks+1)
	}
	// From inside block 0 to inside block 2: the middle block folds, the
	// ends decode, the head is out of range.
	stmt = fmt.Sprintf(`SELECT sum("f") FROM "m" WHERE "tag"='b' AND time >= %d AND time <= %d`, 10, 2*blockRows+10)
	if f, d, h := exec(stmt, 3); f != 1 || d != 2 || h != 0 {
		t.Fatalf("partial range: footer %d decoded %d head %d, want 1 2 0", f, d, h)
	}
	// A late row puts the head off the footer path: its footer sums ran
	// in arrival order, not time order.
	late := Point{Measurement: "m", Time: blocks*blockRows + 5, Tags: map[string]string{"tag": "a"}, Fields: map[string]float64{"f": 1}}
	if err := db.WriteBatchContext(context.Background(), []Point{late}); err != nil {
		t.Fatal(err)
	}
	if f, d, h := exec(`SELECT mean("f") FROM "m"`, 2*(blocks+1)); f != 2*blocks+1 || d != 0 || h != 1 {
		t.Fatalf("head with a late row: footer %d decoded %d head %d, want %d 0 1", f, d, h, 2*blocks+1)
	}
}

// TestQueryUnitTally pins query.units_* and query.cells_decoded for
// three statement shapes. A unit counts as footer when it folds from its
// footers, percentile values decoded or not, and decodes 1 cell plus
// those values; as decoded (a sealed block) or head when its time column
// decodes, and decodes rows × (1 + fields) cells.
func TestQueryUnitTally(t *testing.T) {
	const base = 1 << 20
	db := New()
	in := introspect.New()
	db.SetIntrospection(in)
	var pts []Point
	for _, tag := range []string{"a", "b"} {
		for i := 0; i < 2*blockRows+100; i++ {
			pts = append(pts, Point{Measurement: "m", Time: base + int64(i), Tags: map[string]string{"tag": tag},
				Fields: map[string]float64{"f": float64(i % 13)}})
		}
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	const seriesRows = 2*blockRows + 100
	for _, c := range []struct {
		stmt                         string
		footer, decoded, head, cells uint64
	}{
		{`SELECT p99("f") FROM "m"`, 6, 0, 0, 6 + 2*seriesRows},
		{`SELECT mean("f") FROM "m" GROUP BY time(50ns)`, 0, 4, 2, 2 * 2 * seriesRows},
		{fmt.Sprintf(`SELECT sum("f") FROM "m" WHERE time >= %d`, base+2*blockRows+10), 0, 0, 2, 2 * 2 * 100},
	} {
		before := in.Metrics().Snapshot()
		if _, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: c.stmt, SkipCache: true}); err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		after := in.Metrics().Snapshot()
		delta := func(name string) uint64 { return after.CounterValue(name) - before.CounterValue(name) }
		if f, d, h := delta("query.units_footer"), delta("query.units_decoded"), delta("query.units_head"); f != c.footer || d != c.decoded || h != c.head {
			t.Errorf("%s: footer %d decoded %d head %d, want %d %d %d", c.stmt, f, d, h, c.footer, c.decoded, c.head)
		}
		if cells := delta("query.cells_decoded"); cells != c.cells {
			t.Errorf("%s: %d cells decoded, want %d", c.stmt, cells, c.cells)
		}
	}
}

// errAfterCtx reports cancellation from its n-th Err call on.
type errAfterCtx struct {
	context.Context
	calls, n int
}

func (c *errAfterCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRawSelectObservesCancellation: a raw SELECT checks its context
// between blocks, like the aggregate scan between units, and gives up
// with the same wrapped error.
func TestRawSelectObservesCancellation(t *testing.T) {
	db := New()
	var pts []Point
	for i := 0; i < 4*blockRows; i++ {
		pts = append(pts, Point{Measurement: "m", Time: int64(i), Fields: map[string]float64{"f": 1}})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	// Err call 1 is ExecuteContext's own, call 2 precedes the first block,
	// call 3 the second: cancelled there, after one block was decoded.
	ctx := &errAfterCtx{Context: context.Background(), n: 3}
	res, err := db.ExecuteContext(ctx, QueryRequest{Statement: `SELECT "f" FROM "m"`})
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(fmt.Sprint(err), "tsdb: query: ") {
		t.Fatalf("raw SELECT cancelled after the first block: result %v, error %v", res != nil, err)
	}
	if ctx.calls != 3 {
		t.Fatalf("context consulted %d times, want 3", ctx.calls)
	}
	// The read lock is released: a write goes through.
	if err := db.WriteBatchContext(context.Background(), pts[:1]); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFoldColumns folds one decoded block: the whole range as one
// window, 16-row windows, and a percentile that keeps every sample.
func BenchmarkFoldColumns(b *testing.B) {
	blk := telemetryBlock(b)
	times, err := blk.decodeTimes(nil)
	if err != nil {
		b.Fatal(err)
	}
	col, err := blk.decodeField(0, nil)
	if err != nil {
		b.Fatal(err)
	}
	cols := [][]float64{col}
	const step = telemetryStep
	for _, bc := range []struct {
		name string
		q    *Query
	}{
		{"whole", &Query{Aggregates: []Aggregate{{Fn: "sum", Field: "f0"}}}},
		{"win16", &Query{Aggregates: []Aggregate{{Fn: "sum", Field: "f0"}}, GroupBy: 16 * step}},
		{"p99", &Query{Aggregates: []Aggregate{{Fn: "p", Field: "f0", Pct: 99}}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan := planAggregates(bc.q)
			var out partial
			b.ReportAllocs()
			b.SetBytes(int64(len(times)) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(out.states)
				out.wins, out.states = out.wins[:0], out.states[:0]
				foldColumns(&out, times, cols, 0, len(times), bc.q, plan)
			}
		})
	}
}

// TestUncachedRefreshAllocations: an uncached count and mean over 16
// windows of two series, a live_monitor panel refresh, makes each
// partial once at the windows its rows can touch — the merged one and
// each unit's — instead of growing it a window at a time; the table the
// server encodes takes one array for its cells and no map per row.
func TestUncachedRefreshAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	db := New()
	var ps []Point
	for _, host := range []string{"a", "b"} {
		for i := 16; i < 272; i++ {
			ps = append(ps, Point{Measurement: "m", Tags: map[string]string{"host": host},
				Fields: map[string]float64{"v": float64(i) / 3}, Time: int64(i) * int64(time.Second)})
		}
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`SELECT count("v"), mean("v") FROM "m" WHERE time >= 16000000000 AND time <= 271000000000 GROUP BY time(16s)`)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	refresh := func() {
		if res, err = db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: 1, SkipCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	n := testing.AllocsPerRun(50, refresh)
	t.Logf("objects per %d-window refresh: %v", len(res.Rows), n)
	if len(res.Rows) != 16 {
		t.Fatalf("%d windows, want 16", len(res.Rows))
	}
	if n > 61 {
		t.Errorf("an uncached refresh allocates %v objects; want at most 61", n)
	}
	// The server's path stops at the table: no Result, no map per row.
	n = testing.AllocsPerRun(50, func() {
		if _, err := db.execute(context.Background(), QueryRequest{Query: q, Workers: 1, SkipCache: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("objects per %d-window refresh to its table: %v", len(res.Rows), n)
	if n > 26 {
		t.Errorf("an uncached refresh to its table allocates %v objects; want at most 26", n)
	}
}
