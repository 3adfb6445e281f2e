package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"pmove/internal/storage"
)

// A batch lands in time order, stable: rows out of order inside one batch
// take no late-row path, and no reader can tell.

// orderedRows is an n-row batch of the series (meas, host) at the time
// slots base+slots[i], 8 fields of random values.
func orderedRows(rng *rand.Rand, meas, host string, base int64, slots []int) []Point {
	ps := make([]Point, len(slots))
	for i, s := range slots {
		ps[i] = Point{Measurement: meas, Tags: map[string]string{"host": host},
			Fields: make(map[string]float64, 8), Time: base + int64(s)}
		for f := 0; f < 8; f++ {
			ps[i].Fields[fmt.Sprintf("f%d", f)] = rng.NormFloat64() * 1e3
		}
	}
	return ps
}

// timeOrderCases are the batches TestBatchTimeOrder writes, by case.
func timeOrderCases() map[string][][]Point {
	rng := rand.New(rand.NewSource(42))
	cases := map[string][][]Point{}
	// bulk_ingest's batches: one series, 256 rows, 10 % of them up to 16
	// places early and 1 % on the previous row's time.
	for k := 0; k < 4; k++ {
		cases["bulk_ingest"] = append(cases["bulk_ingest"], orderedRows(rng, "bulk", "h0", int64(k*256), disorder(rng, 256)))
	}
	// Two series in each of two measurements, four rows to a time slot.
	// The first row is a's second series at a later time than the second
	// row, a's first series: the series must still come to be in that
	// order, which is the scan's order of equal times across them.
	names := [4][2]string{{"a", "h1"}, {"a", "h0"}, {"b", "h1"}, {"b", "h0"}}
	for k := 0; k < 2; k++ {
		slots := disorder(rng, 256)
		var ps []Point
		for i, s := range slots {
			ps = append(ps, orderedRows(rng, names[i%4][0], names[i%4][1], int64(k*64), []int{s / 4})...)
		}
		cases["two series of two measurements"] = append(cases["two series of two measurements"], ps)
	}
	first := cases["two series of two measurements"][0]
	first[0].Time, first[1].Time = 1, 0
	// A batch that crosses the blockRows seal.
	for k := 0; k < 5; k++ {
		cases["across the seal"] = append(cases["across the seal"], orderedRows(rng, "seal", "h0", int64(k*1000), disorder(rng, 1000)))
	}
	// A whole frame in reverse.
	reversed := make([]int, MaxBatchPoints)
	for i := range reversed {
		reversed[i] = len(reversed) - 1 - i
	}
	cases["reversed frame"] = [][]Point{orderedRows(rng, "rev", "h0", 0, reversed)}
	return cases
}

// TestBatchTimeOrder: every case's batches store — as WAL lines and as
// rows — and answer, raw over the full range with equal times in their
// order and aggregated at 1e-9 relative, what per-point writes of the
// same rows in the same order store: embedded, over the wire, after a
// crash and reopen, and after a compaction and reopen. None of their
// rows is late, so every head stays sorted.
func TestBatchTimeOrder(t *testing.T) {
	ctx := context.Background()
	for name, batches := range timeOrderCases() {
		t.Run(name, func(t *testing.T) {
			var meas []string
			single, err := Open(t.TempDir(), storage.FsyncNever)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range batches {
				for i := range ps {
					if err := single.WriteBatchContext(ctx, ps[i:i+1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for m := range single.measurements {
				meas = append(meas, m)
			}
			lines := walLines(t, single)

			dir := t.TempDir()
			embedded, err := Open(dir, storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			wired, err := Open(t.TempDir(), storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			srv, addr := startServer(t, wired)
			defer srv.Close()
			pol := testPolicy() // with time for a 4 096-row frame's ack under -race
			pol.ReadTimeout, pol.WriteTimeout = 30*time.Second, 30*time.Second
			c, err := DialPolicy(addr, pol)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i, ps := range batches {
				if err := embedded.WriteBatchContext(ctx, ps); err != nil {
					t.Fatalf("embedded batch %d: %v", i, err)
				}
				if err := c.WriteBatchContext(ctx, ps); err != nil {
					t.Fatalf("wire batch %d: %v", i, err)
				}
			}
			sameStore(t, "embedded", embedded, single, meas)
			sameStore(t, "over the wire", wired, single, meas)
			for label, db := range map[string]*DB{"embedded": embedded, "over the wire": wired} {
				if got := walLines(t, db); fmt.Sprint(got) != fmt.Sprint(lines) {
					t.Fatalf("%s: WAL lines are not the per-point writes' in their order", label)
				}
			}
			if err := embedded.Crash(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir, storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			sameStore(t, "after a crash", reopened, single, meas)
			if err := reopened.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			if reopened, err = Open(dir, storage.FsyncAlways); err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			sameStore(t, "after a compaction", reopened, single, meas)
		})
	}
}

// sameStore fails unless db holds no late row and answers what want does
// over the measurements meas.
func sameStore(t *testing.T, label string, db, want *DB, meas []string) {
	t.Helper()
	if p, v := db.Stats(); p == 0 {
		t.Fatalf("%s: %d rows, %d values", label, p, v)
	}
	for _, m := range meas {
		for _, s := range db.measurements[m].series {
			if s.open.unsorted {
				t.Fatalf("%s: series %q keeps late rows in its head of %d", label, s.key, s.open.rows)
			}
		}
		if got, exp := fmt.Sprint(rawRows(t, db, m)), fmt.Sprint(rawRows(t, want, m)); got != exp {
			t.Fatalf("%s: %s's rows differ from the per-point writes'", label, m)
		}
		var stmts []string
		for f := 0; f < 8; f++ {
			for _, where := range []string{"", ` WHERE "host"='h0'`} {
				stmts = append(stmts, fmt.Sprintf(`SELECT count("f%d"), sum("f%[1]d"), mean("f%[1]d"), min("f%[1]d"), max("f%[1]d"), p50("f%[1]d") FROM %q%s`, f, m, where),
					fmt.Sprintf(`SELECT sum("f%d"), p90("f%[1]d") FROM %q%s GROUP BY time(100ns)`, f, m, where))
			}
		}
		for _, stmt := range stmts {
			got, exp := aggRows(t, db, stmt), aggRows(t, want, stmt)
			if len(got) != len(exp) || len(got) == 0 {
				t.Fatalf("%s: %s: %d rows, want %d", label, stmt, len(got), len(exp))
			}
			for i := range got {
				if got[i].Time != exp[i].Time || len(got[i].Values) != len(exp[i].Values) {
					t.Fatalf("%s: %s: row %d is %v, want %v", label, stmt, i, got[i], exp[i])
				}
				for col, w := range exp[i].Values {
					if g := got[i].Values[col]; math.Abs(g-w) > 1e-9*math.Abs(w) {
						t.Fatalf("%s: %s: row %d %s = %v, want %v", label, stmt, i, col, g, w)
					}
				}
			}
		}
	}
}

func aggRows(t *testing.T, db *DB, stmt string) []Row {
	t.Helper()
	res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: stmt, SkipCache: true})
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Rows
}
