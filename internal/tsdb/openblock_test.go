package tsdb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pmove/internal/introspect"
)

// Head tests: a head compresses rows into an open block as they arrive,
// late rows too, in arrival order. Sealed, it must write exactly what
// the column-at-a-time encoder (refEncodeBlock) writes for the same rows
// in today's order; read, it must give those rows; and reading it must
// not write to it.

// insertCase feeds rows of a genBlockCase input to a series head in the
// given arrival order — a row's fields in random order, absent cells
// left out — and returns the rows stably sorted by time: the order the
// head must scan and seal them in. cols come back aligned with the head's
// fields, NaN where a row or the case has no value.
func insertCase(rng *rand.Rand, s *memSeries, times []int64, names []string, cols [][]float64, order []int) ([]int64, [][]float64) {
	in := interner{}
	var kvs []rowKV
	for _, r := range order {
		kvs = kvs[:0]
		for ci, name := range names {
			if v := cols[ci][r]; v == v {
				kvs = append(kvs, rowKV{key: name, num: v})
			}
		}
		rng.Shuffle(len(kvs), func(i, j int) { kvs[i], kvs[j] = kvs[j], kvs[i] })
		s.insertRow(times[r], kvs, in)
	}
	sorted := slices.Clone(order)
	sort.SliceStable(sorted, func(i, j int) bool { return times[sorted[i]] < times[sorted[j]] })
	wantT := make([]int64, len(sorted))
	for k, r := range sorted {
		wantT[k] = times[r]
	}
	stored := s.open.fieldNames()
	wantC := make([][]float64, len(stored))
	for ci, name := range stored {
		wantC[ci] = make([]float64, len(sorted))
		src := slices.Index(names, name)
		for k, r := range sorted {
			wantC[ci][k] = math.NaN()
			if src >= 0 {
				wantC[ci][k] = cols[src][r]
			}
		}
	}
	return wantT, wantC
}

// seriesDB is a store whose measurement "m" holds the one series s, with
// a retention of 1 ns.
func seriesDB(s *memSeries) *DB {
	db := New()
	db.SetRetention(RetentionPolicy{Duration: 1})
	db.measurements["m"] = &measurement{name: "m", series: []*memSeries{s}, byKey: map[string]*memSeries{s.key: s}}
	return db
}

// readerAnswers renders, bit for bit, what each reader gives over db's
// measurement "m": count/sum/min/max of every field folded where it can
// be from footers, the same with a median so every unit decodes, a raw
// SELECT *, and CountValues.
func readerAnswers(t *testing.T, db *DB, names []string) []string {
	t.Helper()
	var aggs, withP50 []Aggregate
	for _, f := range names {
		aggs = append(aggs, Aggregate{Fn: "count", Field: f}, Aggregate{Fn: "sum", Field: f},
			Aggregate{Fn: "min", Field: f}, Aggregate{Fn: "max", Field: f})
		withP50 = append(withP50, Aggregate{Fn: "p", Field: f, Pct: 50})
	}
	withP50 = append(withP50, aggs...)
	var out []string
	for _, q := range []*Query{
		{Measurement: "m", Aggregates: aggs},
		{Measurement: "m", Aggregates: withP50},
		{Measurement: "m", Fields: []string{"*"}},
	} {
		res, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: 1, SkipCache: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var sb strings.Builder
		fmt.Fprintln(&sb, res.Columns)
		for _, r := range res.Rows {
			fmt.Fprint(&sb, r.Time)
			for _, c := range res.Columns {
				if v, ok := r.Values[c]; ok {
					fmt.Fprintf(&sb, " %s=%x", c, math.Float64bits(v))
				}
			}
			sb.WriteByte('\n')
		}
		out = append(out, sb.String())
	}
	total, zeros := db.CountValues("m")
	return append(out, fmt.Sprint(total, zeros))
}

// TestOpenBlockMatchesEncodeBlock seals 2 500 generated heads, one series
// reused so every seal also tests the reset before it, and holds each
// to the reference encoder's bytes for the stably sorted rows: rows in
// order, rows up to 16 places late, rows in any order (equal times on
// both sides of a late row: some arriving in order, some late), a field
// first seen mid-head, and regular ticks in reverse, whose zero
// delta-of-deltas the decoder fills with a negative delta. Before the
// seal the head must read back those rows, and every reader — an
// aggregate from footers and decoded, a raw SELECT *, CountValues and a
// retention cut — must answer over the head as over the same rows
// sealed.
func TestOpenBlockMatchesEncodeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0be7b10c))
	s, sealed := &memSeries{fields: map[string]int{}}, &memSeries{}
	headDB, sealedDB := seriesDB(s), seriesDB(sealed)
	var withLate, splitDup, midField, reversed, cut int
	for c := 0; c < 2500; c++ {
		s.blocks = nil // the last case's seal
		times, names, cols := genBlockCase(rng)
		rows := len(times)
		key := make([]int, rows) // arrival order: rows sorted by key, stably
		for r := range key {
			key[r] = r
		}
		switch c % 5 {
		case 1: // a tenth of the rows arrive up to 16 places late
			for r := range key {
				if rng.Intn(10) == 0 {
					key[r] += 1 + rng.Intn(16)
				}
			}
		case 2: // any order
			key = rng.Perm(rows)
		case 3: // a field first seen mid-head
			f := rng.Intn(len(cols))
			for r := 0; r < rows/2; r++ {
				cols[f][r] = math.NaN()
			}
			midField++
		case 4: // regular ticks, newest first
			step := int64(1 + rng.Intn(10))
			for r := range times {
				times[r] = times[0] + int64(r)*step
				key[r] = rows - r
			}
			reversed++
		}
		order := make([]int, rows)
		for r := range order {
			order[r] = r
		}
		sort.SliceStable(order, func(i, j int) bool { return key[order[i]] < key[order[j]] })
		wantT, wantC := insertCase(rng, s, times, names, cols, order)
		stored := s.open.fieldNames()

		label := fmt.Sprintf("case %d", c)
		if s.open.rows != rows {
			t.Fatalf("%s: head holds %d rows, want %d", label, s.open.rows, rows)
		}
		if s.open.unsorted {
			withLate++
			arrived, err := s.open.decodeTimes(nil)
			if err != nil {
				t.Fatalf("%s: open block times: %v", label, err)
			}
			inOrder, late := map[int64]bool{}, map[int64]bool{}
			maxT := arrived[0]
			for _, ts := range arrived {
				if ts < maxT {
					late[ts] = true
				} else {
					inOrder[ts], maxT = true, ts
				}
			}
			for ts := range late {
				if inOrder[ts] {
					splitDup++
					break
				}
			}
		}
		var sc scratch
		if _, _, err := s.head().columns(stored, 0, 0, &sc); err != nil {
			t.Fatalf("%s: head columns: %v", label, err)
		}
		gotT, gotC := sc.times, sc.cols
		if !slices.Equal(gotT, wantT) {
			t.Fatalf("%s: head times differ from the stably sorted rows", label)
		}
		for ci := range wantC {
			if gotC[ci] == nil {
				if slices.ContainsFunc(wantC[ci], func(v float64) bool { return v == v }) {
					t.Fatalf("%s: field %s: head reads no values", label, stored[ci])
				}
				continue
			}
			for r, w := range wantC[ci] {
				if math.Float64bits(gotC[ci][r]) != math.Float64bits(w) {
					t.Fatalf("%s: field %s row %d: head reads %x, want %x", label, stored[ci], r, math.Float64bits(gotC[ci][r]), math.Float64bits(w))
				}
			}
		}
		want, err := refEncodeBlock(wantT, stored, wantC)
		if err != nil {
			t.Fatalf("%s: reference encode: %v", label, err)
		}
		got, err := s.closeHead()
		if err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		if !bytes.Equal(got.blob, want.blob) {
			t.Fatalf("%s: sealed %d bytes, reference %d; they differ", label, len(got.blob), len(want.blob))
		}
		sealed.blocks = []*block{got}
		if h, b := readerAnswers(t, headDB, stored), readerAnswers(t, sealedDB, stored); !slices.Equal(h, b) {
			t.Fatalf("%s: readers answer\n%q\nover the head, and\n%q\nover its sealed block", label, h, b)
		}
		// Retention cuts the head at its middle row, and the block there.
		now := wantT[rows/2] + 1
		if h, b := headDB.EnforceRetention(now), sealedDB.EnforceRetention(now); h != b {
			t.Fatalf("%s: retention drops %d head rows, %d sealed", label, h, b)
		} else if h > 0 {
			cut++
		}
		if h, b := readerAnswers(t, headDB, stored), readerAnswers(t, sealedDB, stored); !slices.Equal(h, b) {
			t.Fatalf("%s: after retention readers answer\n%q\nover the head, and\n%q\nover its sealed block", label, h, b)
		}
		if got, err = s.seal(); err != nil {
			t.Fatalf("%s: seal: %v", label, err)
		}
		if !bytes.Equal(got.blob, sealed.blocks[0].blob) {
			t.Fatalf("%s: the cut head seals to %d bytes, the cut block is %d; they differ", label, len(got.blob), len(sealed.blocks[0].blob))
		}
		if s.open.rows != 0 || s.open.bytes != 0 {
			t.Fatalf("%s: seal left %d rows, %d bytes in the head", label, s.open.rows, s.open.bytes)
		}
	}
	if withLate < 500 || splitDup == 0 || midField < 500 || reversed < 500 || cut < 1000 {
		t.Fatalf("generator coverage: late rows %d, equal times split %d, mid-head field %d, reversed ticks %d, retention cut %d", withLate, splitDup, midField, reversed, cut)
	}
}

// TestHeadReadersDoNotMutate runs raw and aggregate queries over heads
// while a writer appends in-order and late rows, under -race in ci.sh: a
// reader that wrote to a head — a bit writer flushed to read its tail —
// races with the reader beside it. Afterwards every query must agree
// with the row oracle.
func TestHeadReadersDoNotMutate(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(0x4ead))
	var pts []Point
	for i := 0; i < 3000; i++ {
		ts := int64(i)
		if rng.Intn(10) == 0 {
			ts -= int64(1 + rng.Intn(16)) // late
		}
		pts = append(pts, Point{Measurement: "m", Time: ts, Tags: map[string]string{"tag": []string{"a", "b"}[i%2]},
			Fields: map[string]float64{"f": dyadic(rng), "g": float64(i % 7)}})
	}
	queries := []*Query{
		{Measurement: "m", Fields: []string{"*"}},
		{Measurement: "m", Aggregates: []Aggregate{{Fn: "sum", Field: "f"}, {Fn: "count", Field: "g"}, {Fn: "max", Field: "g"}}, GroupBy: 256},
		{Measurement: "m", Aggregates: []Aggregate{{Fn: "p", Field: "f", Pct: 90}}},
		{Measurement: "m", Aggregates: []Aggregate{{Fn: "min", Field: "f"}}, From: 100, To: 2000},
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := db.ExecuteContext(ctx, QueryRequest{Query: queries[k%len(queries)], Workers: 2, SkipCache: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < len(pts); i += 10 {
		if err := db.WriteBatchContext(ctx, pts[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for qi, q := range queries[1:] {
		got, err := db.ExecuteContext(ctx, QueryRequest{Query: q, SkipCache: true})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, qi, q, got, refExecute(pts, q))
	}
}

// headCapBytes is what a series head holds on the heap: the capacity of
// every buffer it appended into, and its column array.
func headCapBytes(s *memSeries) int {
	n := cap(s.open.ts) + cap(s.open.cols)*int(unsafe.Sizeof(openCol{})) + cap(s.open.fields)*int(unsafe.Sizeof(blockField{}))
	for i := range s.open.cols {
		n += cap(s.open.fields[i].bitmap) + cap(s.open.fields[i].stream)
	}
	return n
}

// liveRows feeds a live-shaped series rows rows from tick r0 on through
// the store's insert: 88 per-CPU PMU counts on a 250 ms tick, shaped
// like the sampler's — three events in five idle at 0, the rest
// cumulative counts moving by about a tenth of their rate each tick.
func liveRows(db *DB, r0, rows int) error {
	rng := rand.New(rand.NewSource(88))
	ctr := make([]float64, 88)
	for r := r0; r < r0+rows; r++ {
		p := Point{Measurement: "perfevent", Tags: map[string]string{"host": "icl"}, Fields: map[string]float64{}, Time: int64(r) * 250_000_000}
		for f := range ctr {
			if f%5 >= 3 {
				ctr[f] += float64(250_000 + rng.Intn(50_000))
			}
			p.Fields[fmt.Sprintf("_cpu%d", f)] = ctr[f]
		}
		if err := db.WriteBatchContext(context.Background(), []Point{p}); err != nil {
			return err
		}
	}
	return nil
}

// TestHeadBytesPerPoint: an unsealed live-shaped head costs about what
// its sealed block does, not 8 bytes a value plus append slack.
func TestHeadBytesPerPoint(t *testing.T) {
	db := New()
	const rows = 266
	if err := liveRows(db, 0, rows); err != nil {
		t.Fatal(err)
	}
	s := db.measurements["perfevent"].series[0]
	perPoint := float64(headCapBytes(s)) / (rows * 88)
	b, err := s.closeHead()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("head %.2f B/point, sealed %.2f", perPoint, float64(len(b.blob))/(rows*88))
	if perPoint > 3 {
		t.Fatalf("head holds %.2f B/point, want <= 3", perPoint)
	}
}

// TestLateHeadBytesPerValue: late rows cost the head what rows in order
// do. 4 000 one-row batches of the 88-field row, each a step older than
// the last, leave under 2 B a value in the head, as compressed as the
// open block keeps any row — not 8 B a cell.
func TestLateHeadBytesPerValue(t *testing.T) {
	db, ctx := New(), context.Background()
	ps := []Point{codecRow(88)}
	base := ps[0].Time
	for n := 0; n < 4000; n++ {
		ps[0].Time = base - int64(n)
		if err := db.WriteBatchContext(ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	s := db.measurements[ps[0].Measurement].series[0]
	if !s.open.unsorted || s.open.rows != 4000 {
		t.Fatalf("head of %d rows, unsorted %v; want 4000 late rows", s.open.rows, s.open.unsorted)
	}
	if perValue := float64(s.open.bytes) / (4000 * 88); perValue >= 2 {
		t.Fatalf("head holds %.2f B a value, want under 2", perValue)
	}
}

// TestStorageBytesGauge: storage.bytes counts a head by the bytes it
// holds — the timestamp and value streams its sealed block carries; a
// series without gaps holds no bitmap — then by the blob once it seals.
func TestStorageBytesGauge(t *testing.T) {
	db := New()
	in := introspect.New()
	db.SetIntrospection(in)
	if err := liveRows(db, 0, 266); err != nil {
		t.Fatal(err)
	}
	s := db.measurements["perfevent"].series[0]
	b, err := s.closeHead()
	if err != nil {
		t.Fatal(err)
	}
	want := len(b.ts)
	for _, f := range b.fields {
		want += len(f.stream)
	}
	if got := in.Metrics().Snapshot().GaugeValue("storage.bytes"); got != float64(want) {
		t.Fatalf("storage.bytes = %v over a live head, want its streams' %d", got, want)
	}
	if err := liveRows(db, 266, blockRows-266); err != nil {
		t.Fatal(err)
	}
	if len(s.blocks) != 1 || s.open.rows != 0 {
		t.Fatalf("%d blocks, %d head rows after blockRows rows; want 1 and 0", len(s.blocks), s.open.rows)
	}
	if got := in.Metrics().Snapshot().GaugeValue("storage.bytes"); got != float64(len(s.blocks[0].blob)) {
		t.Fatalf("storage.bytes = %v once sealed, want the blob's %d", got, len(s.blocks[0].blob))
	}
}

// TestHeadDecodeScratchReused: a head gains a row a tick, and each
// refresh decodes it into the scratch the query before it used (one
// scratch here, scratchPool's in a query). The scratch grows
// geometrically, so over 256 ticks the refreshes that reallocate its
// times or its column number O(log n), not one per tick.
func TestHeadDecodeScratchReused(t *testing.T) {
	db, ctx := New(), context.Background()
	var sc scratch
	grew := 0
	for i := 0; i < 256; i++ {
		if err := db.WriteBatchContext(ctx, []Point{{Measurement: "m", Fields: map[string]float64{"f": float64(i)}, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
		times, cols := cap(sc.times), 0
		if len(sc.cols) > 0 {
			cols = cap(sc.cols[0])
		}
		db.data.RLock()
		us := db.units(&Query{Measurement: "m"})
		if len(us) != 1 || !us[0].head {
			db.data.RUnlock()
			t.Fatalf("tick %d: units %v, want the head alone", i, us)
		}
		_, _, err := us[0].columns([]string{"f"}, 0, 0, &sc)
		db.data.RUnlock()
		if err != nil || len(sc.times) != i+1 || len(sc.cols[0]) != i+1 || sc.cols[0][i] != float64(i) {
			t.Fatalf("tick %d: decoded %d times, %d values (%v); want %d", i, len(sc.times), len(sc.cols[0]), err, i+1)
		}
		if cap(sc.times) != times || cap(sc.cols[0]) != cols {
			grew++
		}
	}
	if grew > 24 {
		t.Errorf("%d of 256 head refreshes reallocated the scratch: it is not reused", grew)
	}
}
