package tsdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"pmove/internal/storage"
)

// The embedded write: a batch of points becomes rows once, and the WAL
// record is printed from them with the number speller. The scratch is
// reused, so these tests hold it to never leaking one batch into another.

// bulkBatch is a batch shaped like the benchmark's bulk_ingest writes:
// rows points of one series, 8 fields, values in steps of 1/8.
func bulkBatch(rng *rand.Rand, meas string, rows int) []Point {
	ps := make([]Point, rows)
	for i := range ps {
		ps[i] = Point{Measurement: meas, Tags: map[string]string{"host": "h0"},
			Fields: make(map[string]float64, 8), Time: int64(i)}
		for f := 0; f < 8; f++ {
			ps[i].Fields[fmt.Sprintf("f%d", f)] = float64(rng.Intn(65537)) / 8
		}
	}
	return ps
}

// retime moves a batch to its n-th slot of a series' timeline.
func retime(ps []Point, n int) {
	for i := range ps {
		ps[i].Time = int64(n*len(ps) + i)
	}
}

// disorder returns the slots of an n-row batch in bulk_ingest's arrival
// order: 1 % of rows take the previous row's slot, and then 10 % trade
// places with a row up to 16 places before them.
func disorder(rng *rand.Rand, n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
		if i > 0 && rng.Intn(100) < 1 {
			slots[i]--
		}
	}
	for i := 1; i < n; i++ {
		if rng.Intn(100) < 10 {
			k := min(1+rng.Intn(16), i)
			slots[i], slots[i-k] = slots[i-k], slots[i]
		}
	}
	return slots
}

func BenchmarkWriteBatch(b *testing.B) {
	// ooo is mem with the batch's rows in bulk_ingest's arrival order.
	for _, mode := range []string{"mem", "ooo", "never", "always"} {
		b.Run(mode, func(b *testing.B) {
			db := New()
			if mode == "never" || mode == "always" {
				var err error
				if db, err = Open(b.TempDir(), storage.FsyncPolicy(mode)); err != nil {
					b.Fatal(err)
				}
				defer db.Close()
			}
			ps := bulkBatch(rand.New(rand.NewSource(1)), "bulk", 256)
			slots := disorder(rand.New(rand.NewSource(2)), len(ps))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				retime(ps, n)
				if mode == "ooo" {
					for i, s := range slots {
						ps[i].Time = int64(n*len(ps) + s)
					}
				}
				if err := db.WriteBatchContext(ctx, ps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/point")
		})
	}
	// A monitoring tick on skx, five metrics across 88 threads, each row
	// its own map as each sample is: the client's WRITEB body, then the
	// same batch into memory.
	b.Run("tick", func(b *testing.B) {
		db, ctx := New(), context.Background()
		ps := make([]Point, 5)
		for i := range ps {
			ps[i] = codecRow(88)
			ps[i].Measurement += strconv.Itoa(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			retime(ps, n)
			fb := getFrameBuf()
			var err error
			if fb.body, fb.kvs, err = batchBody(fb.body, fb.kvs, ps); err != nil {
				b.Fatal(err)
			}
			putFrameBuf(fb)
			if err := db.WriteBatchContext(ctx, ps); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/point")
	})
	// Late rows: one-row batches of the 88-field row into memory, each
	// one time step older than the last, so every row after the first
	// arrives late, older than all the rows the head holds.
	b.Run("late", func(b *testing.B) {
		db, ctx := New(), context.Background()
		ps := []Point{codecRow(88)}
		base := ps[0].Time
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			ps[0].Time = base - int64(n)
			if err := db.WriteBatchContext(ctx, ps); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/point")
	})
	// late with values that change every row, as a sampler's do: late's
	// repeat theirs, which the head compresses to a bit a value.
	b.Run("late_vary", func(b *testing.B) {
		db, ctx := New(), context.Background()
		rows := variedRows(64)
		base := rows[0].Time
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			ps := rows[n%len(rows):][:1]
			ps[0].Time = base - int64(n)
			if err := db.WriteBatchContext(ctx, ps); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/point")
	})
}

// variedRows returns n copies of the 88-field row, each field moving by
// a random step of 1/8 from one row to the next.
func variedRows(n int) []Point {
	rng := rand.New(rand.NewSource(88))
	rows := make([]Point, n)
	prev := codecRow(88)
	for i := range rows {
		rows[i] = Point{Measurement: prev.Measurement, Tags: prev.Tags, Fields: make(map[string]float64, 88), Time: prev.Time}
		for k, v := range prev.Fields {
			rows[i].Fields[k] = v + float64(rng.Intn(17)-8)/8
		}
		prev = rows[i]
	}
	return rows
}

// floatSets are the value sets the speller is measured and checked on:
// the benchmark's steps of 1/8, integer counters, and random bit
// patterns, which strconv spells.
func floatSets() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	sets := map[string][]float64{}
	for i := 0; i < 1024; i++ {
		sets["dyadic"] = append(sets["dyadic"], float64(rng.Intn(65537))/8)
		sets["integer"] = append(sets["integer"], float64(rng.Int63n(1<<40)))
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				sets["random"] = append(sets["random"], f)
				break
			}
		}
	}
	return sets
}

// BenchmarkAppendFloat: the line speller and the reply's (json) beside
// strconv's.
func BenchmarkAppendFloat(b *testing.B) {
	for _, set := range []string{"dyadic", "integer", "random"} {
		vs := floatSets()[set]
		for _, speller := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{
			{"spell", appendFloat},
			{"json", func(dst []byte, f float64) []byte { dst, _ = appendJSONFloat(dst, f); return dst }},
			{"strconv", func(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'g', -1, 64) }},
		} {
			b.Run(set+"/"+speller.name, func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]byte, 0, 32)
				for i := 0; i < b.N; i++ {
					buf = speller.fn(buf[:0], vs[i%len(vs)])
				}
				sinkLine = buf
			})
		}
	}
}

// FuzzAppendFloat: for any bit pattern the speller writes strconv's
// shortest 'g' spelling, byte for byte, NaN and ±Inf included.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 999999, 1e6, 1e15 - 1, 1e15, 1e-4, 1e-5,
		0.5, 0.125, 1.0 / (1 << 20), 1.0 / (1 << 21), 1.0 / (1 << 22), 1234.625, -8191.875,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		dst := []byte("x=")
		got := appendFloat(dst, v)
		want := strconv.AppendFloat(dst, v, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#x) = %q, strconv %q", b, got, want)
		}
	})
}

// TestAppendFloatMatchesStrconv: every value of the lanes' sets, their
// negations and the numbers at each boundary of the speller's rule.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var vs []float64
	for _, set := range floatSets() {
		vs = append(vs, set...)
	}
	for k := 0; k <= 24; k++ {
		p := 1.0 / float64(uint64(1)<<k)
		vs = append(vs, p, 1+p, 1e15-p, 999999+p, 1e6+p, 1e-4+p)
	}
	for e := -8; e <= 16; e++ {
		x := math.Pow10(e)
		vs = append(vs, x, math.Nextafter(x, 0), math.Nextafter(x, 2*x), 3*x, x/8)
	}
	for _, v := range vs {
		for _, v := range []float64{v, -v} {
			got, want := appendFloat(nil, v), strconv.AppendFloat(nil, v, 'g', -1, 64)
			if !bytes.Equal(got, want) {
				t.Errorf("appendFloat(%v) = %q, strconv %q", v, got, want)
			}
			if j, _ := appendJSONFloat(nil, v); !bytes.Equal(j, refFloat(v)) {
				t.Errorf("appendJSONFloat(%v) = %q, encoding/json %q", v, j, refFloat(v))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkLine = appendFloat(sinkLine[:0], 1234.625) }); n != 0 {
		t.Errorf("appendFloat into a buffer with room: %v allocations, want 0", n)
	}
}

// walImage closes db and returns its log (see walLog).
func walImage(t *testing.T, db *DB) []byte {
	t.Helper()
	path := db.WALPath()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return walLog(t, path)
}

// walLog returns the log in the wal.log at path: the clean prefix
// storage.DecodeAll finds. It fails unless only zeros follow, which is
// the extent an always log keeps past its end.
func walLog(t *testing.T, path string) []byte {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := storage.DecodeAll(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimLeft(img[n:], "\x00")) != 0 {
		t.Fatalf("%s: nonzero bytes after the %d-byte log", path, n)
	}
	return img[:n]
}

// TestEmbeddedAndWireWriteSameBytes: the same batches — plain rows, rows
// whose names need escapes, one-point batches — through the embedded
// writer and through Client → Server leave the same wal.log and Stats().
func TestEmbeddedAndWireWriteSameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batches := [][]Point{bulkBatch(rng, "bulk", 256), bulkBatch(rng, `m s,c=e\b`, 7), bulkBatch(rng, "one", 1)}
	for i := range batches[1] {
		batches[1][i].Tags[`k ,=\`] = "v,w"
		batches[1][i].Fields["x"] = rng.NormFloat64()
	}
	ctx := context.Background()
	embedded, err := Open(t.TempDir(), storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := Open(t.TempDir(), storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, wired)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, b := range batches {
		if err := embedded.WriteBatchContext(ctx, b); err != nil {
			t.Fatalf("embedded batch %d: %v", i, err)
		}
		if err := c.WriteBatchContext(ctx, b); err != nil {
			t.Fatalf("wire batch %d: %v", i, err)
		}
	}
	ep, ev := embedded.Stats()
	wp, wv := wired.Stats()
	if ep != wp || ev != wv || ep != 264 {
		t.Fatalf("Stats(): embedded %d rows, %d values; over the wire %d, %d; want 264 rows", ep, ev, wp, wv)
	}
	if e, w := walImage(t, embedded), walImage(t, wired); !bytes.Equal(e, w) {
		t.Fatalf("wal.log: embedded %d bytes, over the wire %d, not the same bytes", len(e), len(w))
	}
}

// TestWritersReuseTheirPoints: two writers, each refilling its own
// []Point maps between batches as the benchmark's generator does, into
// one durable store. Every stored value, live and replayed, is the one
// written: a row that kept a name or a value of another batch or another
// writer — a scratch handed out twice, or reused before its commit — would
// show here, or to -race.
func TestWritersReuseTheirPoints(t *testing.T) {
	const writers, batches, rows = 2, 24, 64
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	value := func(w, b, r, f int) float64 { return float64(w*1_000_000+b*1000+r) + float64(f)/8 }
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := bulkBatch(rand.New(rand.NewSource(int64(w))), fmt.Sprintf("w%d", w), rows)
			for b := 0; b < batches; b++ {
				retime(ps, b)
				for r := range ps {
					// A new field name per batch too: the rows' keys come
					// from these maps.
					clear(ps[r].Fields)
					for f := 0; f < 8; f++ {
						ps[r].Fields[fmt.Sprintf("f%d", (f+b)%10)] = value(w, b, r, f)
					}
					ps[r].Tags["host"] = fmt.Sprintf("h%d", b%3)
				}
				if errs[w] = db.WriteBatchContext(context.Background(), ps); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB, label string) {
		for w := 0; w < writers; w++ {
			res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: fmt.Sprintf(`SELECT * FROM "w%d"`, w)})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != batches*rows {
				t.Fatalf("%s: w%d holds %d rows, want %d", label, w, len(res.Rows), batches*rows)
			}
			for _, row := range res.Rows {
				b, r := int(row.Time)/rows, int(row.Time)%rows
				if len(row.Values) != 8 {
					t.Fatalf("%s: w%d row %d has %d values, want 8: %v", label, w, row.Time, len(row.Values), row.Values)
				}
				for f := 0; f < 8; f++ {
					name := fmt.Sprintf("f%d", (f+b)%10)
					if got, want := row.Values[name], value(w, b, r, f); got != want {
						t.Fatalf("%s: w%d row %d %s = %v, want %v", label, w, row.Time, name, got, want)
					}
				}
			}
		}
	}
	check(db, "live")
	db.Close()
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "replayed")
}

// TestWriteBatchAllocations: a warm embedded batch allocates nothing, at
// 64 and at 256 rows, in memory and durable: its rows, WAL record and
// frame, time order and written measurements are all spare scratch.
func TestWriteBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	for _, durable := range []bool{false, true} {
		per := map[int]float64{}
		for _, rows := range []int{64, 256} {
			db := New()
			if durable {
				var err error
				if db, err = Open(t.TempDir(), storage.FsyncNever); err != nil {
					t.Fatal(err)
				}
			}
			// One row per series, so no series seals while measured: warm
			// each past its first seal, after which its head keeps a
			// block's capacity.
			ps := bulkBatch(rand.New(rand.NewSource(1)), "bulk", rows)
			for i := range ps {
				ps[i].Tags["host"] = fmt.Sprintf("h%d", i)
			}
			n := 0
			write := func() {
				for i := range ps {
					ps[i].Time = int64(n)
				}
				n++
				if err := db.WriteBatchContext(context.Background(), ps); err != nil {
					t.Fatal(err)
				}
			}
			for n < blockRows+1 {
				write()
			}
			per[rows] = testing.AllocsPerRun(100, write)
			db.Close()
		}
		t.Logf("durable=%v: %v objects a batch at 64 rows, %v at 256", durable, per[64], per[256])
		if per[64] != 0 || per[256] != 0 {
			t.Errorf("durable=%v: a warm batch allocates %v objects at 64 rows, %v at 256; want none", durable, per[64], per[256])
		}
	}
}

// TestRejectedPointLeavesNoTrace: a batch refused at point k changes
// neither the store nor its WAL, no spare scratch keeps anything of it or
// of the accepted batch after it, and that batch stores what it says.
func TestRejectedPointLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	first, next := bulkBatch(rng, "m", 32), bulkBatch(rng, "m", 32)
	retime(next, 1)
	for _, k := range []int{0, 17, 31} {
		db, err := Open(t.TempDir(), storage.FsyncNever)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.WriteBatchContext(ctx, first); err != nil {
			t.Fatal(err)
		}
		points, values := db.Stats()
		size := walSize(t, db)
		bad := bulkBatch(rng, "bad", 32)
		for i := range bad {
			bad[i].Tags["stale"] = "tag"
		}
		bad[k].Fields["nan"] = math.NaN()
		err = db.WriteBatchContext(ctx, bad)
		var be *BatchError
		if !errors.As(err, &be) || be.Index != k {
			t.Fatalf("k=%d: %v, want *BatchError{Index: %d}", k, err, k)
		}
		if p, v := db.Stats(); p != points || v != values || walSize(t, db) != size || len(db.Measurements()) != 1 {
			t.Fatalf("k=%d: the rejected batch left a trace: Stats %d/%d (was %d/%d), WAL %d bytes (was %d), measurements %q",
				k, p, v, points, values, walSize(t, db), size, db.Measurements())
		}
		sparesHoldNothing(t, fmt.Sprintf("k=%d, after the rejected batch", k))
		if err := db.WriteBatchContext(ctx, next); err != nil {
			t.Fatal(err)
		}
		sparesHoldNothing(t, fmt.Sprintf("k=%d, after the next batch", k))
		want := New()
		want.WriteBatchContext(ctx, first)
		want.WriteBatchContext(ctx, next)
		if got, want := fmt.Sprint(rawRows(t, db, "m")), fmt.Sprint(rawRows(t, want, "m")); got != want {
			t.Fatalf("k=%d: after the rejected batch the store reads\n%s\nwant\n%s", k, got, want)
		}
		db.Close()
	}
}

// sparesHoldNothing fails unless every kept scratch is empty and zero to
// its capacity: no name of a finished or rejected batch stays reachable.
func sparesHoldNothing(t *testing.T, label string) {
	t.Helper()
	for s := range spares {
		rb := spares[s].Swap(nil) // held, so no writer fills it meanwhile
		if rb == nil {
			continue
		}
		if len(rb.rows) != 0 || len(rb.rec) != 0 {
			t.Fatalf("%s: a spare scratch is in use: %d rows, %d record bytes", label, len(rb.rows), len(rb.rec))
		}
		for i, r := range rb.rows[:cap(rb.rows)] {
			if r.meas != "" || r.line != "" || r.tags != nil || r.fields != nil {
				t.Fatalf("%s: a spare row scratch still holds %q at %d", label, r.meas, i)
			}
		}
		for i, kv := range rb.kvs[:cap(rb.kvs)] {
			if kv != (rowKV{}) {
				t.Fatalf("%s: a spare key scratch still holds %+v at %d", label, kv, i)
			}
		}
		spares[s].Store(rb)
	}
}

func walSize(t *testing.T, db *DB) int {
	t.Helper()
	return len(walLog(t, db.WALPath()))
}

// TestClientBodyAllocations: a skx tick of 5 points × 88 fields encodes
// into its WRITEB body without allocating, in a pooled frame buffer.
func TestClientBodyAllocations(t *testing.T) {
	ps := make([]Point, 5)
	for i := range ps {
		ps[i] = codecRow(88)
		ps[i].Time += int64(i)
	}
	var body []byte
	if n := testing.AllocsPerRun(100, func() {
		fb := getFrameBuf()
		fb.body, fb.kvs, _ = batchBody(fb.body, fb.kvs, ps)
		body = append(body[:0], fb.body...)
		putFrameBuf(fb)
	}); n > 0 && !raceEnabled { // the race detector drops pooled objects at random
		t.Errorf("a 5×88 WRITEB body: %v allocations, want none from a pooled buffer", n)
	}
	var want []byte
	for i := range ps {
		line, _ := EncodeLine(ps[i])
		want = append(append(want, line...), '\n')
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("body differs from the lines EncodeLine prints")
	}
}

// keyedRow is the i-th point of measurement m, its fields keys with
// values from rng, put into a fresh map in a shuffled order.
func keyedRow(rng *rand.Rand, i int, keys []string) Point {
	p := Point{Measurement: "m", Tags: map[string]string{"host": "h0"},
		Fields: make(map[string]float64, len(keys)), Time: int64(i)}
	for _, j := range rng.Perm(len(keys)) {
		p.Fields[keys[j]] = float64(rng.Intn(65537)) / 8
	}
	return p
}

// walLines returns the lines of a durable store's log, record by record
// and item by item, closing the store.
func walLines(t *testing.T, db *DB) []string {
	t.Helper()
	recs, _, err := storage.DecodeAll(walImage(t, db))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range recs {
		items := [][]byte{r.Data}
		if storage.IsBatchBody(r.Data) {
			if items, err = storage.DecodeBatchBody(r.Data); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range items {
			lines = append(lines, string(it))
		}
	}
	return lines
}

// TestRememberedKeyOrder: a batch reads each point's fields in the key
// order of the point before it, and sorts only a point whose key set
// differs. Whatever the sets do from row to row, the client's WRITEB
// body is the points' AppendLine lines, and the embedded batch stores —
// in memory and in its WAL — what writing the points one by one stores.
func TestRememberedKeyOrder(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{5, 20} { // an insertion sort, and slices.SortFunc
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
		}
		batch := func(keysOf func(i int) []string) []Point {
			ps := make([]Point, 6)
			for i := range ps {
				ps[i] = keyedRow(rng, i, keysOf(i))
			}
			return ps
		}
		renamed := append(append([]string(nil), keys[:n-1]...), "a") // the miss is the last lookup
		cases := map[string][]Point{
			"same keys in other map orders": batch(func(int) []string { return keys }),
			"a field added":                 batch(func(i int) []string { return append(keys[:n:n], "k99")[:n+min(i%3, 1)] }),
			"a field removed":               batch(func(i int) []string { return keys[:n-i%2] }),
			"the last key renamed": batch(func(i int) []string {
				if i%3 == 1 {
					return renamed
				}
				return keys
			}),
		}
		varied := batch(func(int) []string { return keys })
		for i := range varied {
			varied[i].Tags = map[string]string{"host": fmt.Sprintf("h%d", i%2)}
			if i%3 == 0 {
				varied[i].Tags["rack"] = "r" + strconv.Itoa(i)
			}
		}
		cases["tags that vary"] = varied
		for name, ps := range cases {
			label := fmt.Sprintf("%d keys, %s", n, name)
			var want []byte
			var lines []string
			for i := range ps {
				line, err := AppendLine(nil, &ps[i])
				if err != nil {
					t.Fatal(err)
				}
				want = append(append(want, line...), '\n')
				lines = append(lines, string(line))
			}
			if body, _, err := batchBody(nil, nil, ps); err != nil || !bytes.Equal(body, want) {
				t.Fatalf("%s: WRITEB body (%v)\n%s\nwant the lines\n%s", label, err, body, want)
			}
			batched, err := Open(t.TempDir(), storage.FsyncNever)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Open(t.TempDir(), storage.FsyncNever)
			if err != nil {
				t.Fatal(err)
			}
			if err := batched.WriteBatchContext(ctx, ps); err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				if err := single.WriteBatchContext(ctx, ps[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := fmt.Sprint(rawRows(t, batched, "m")), fmt.Sprint(rawRows(t, single, "m")); got != want {
				t.Fatalf("%s: the batch stores\n%s\npoint by point\n%s", label, got, want)
			}
			bl, sl := walLines(t, batched), walLines(t, single)
			if fmt.Sprint(bl) != fmt.Sprint(lines) || fmt.Sprint(sl) != fmt.Sprint(lines) {
				t.Fatalf("%s: WAL lines\nbatched %q\nsingle  %q\nwant    %q", label, bl, sl, lines)
			}
		}

		// A NaN partway through a row read in the remembered order fails
		// the batch at that row, before anything lands.
		ps := cases["same keys in other map orders"]
		ps[3].Fields[keys[n/2]] = math.NaN()
		var be *BatchError
		if _, _, err := batchBody(nil, nil, ps); !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, ErrNonFiniteField) {
			t.Fatalf("%d keys: WRITEB body with a NaN in row 3: %v", n, err)
		}
		db, err := Open(t.TempDir(), storage.FsyncNever)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.WriteBatchContext(ctx, ps); !errors.As(err, &be) || be.Index != 3 {
			t.Fatalf("%d keys: a batch with a NaN in row 3: %v, want *BatchError{Index: 3}", n, err)
		}
		if p, v := db.Stats(); p != 0 || v != 0 || walSize(t, db) != 0 {
			t.Fatalf("%d keys: the rejected batch left %d rows, %d values, %d WAL bytes", n, p, v, walSize(t, db))
		}
		db.Close()
	}
}
