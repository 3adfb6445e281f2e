package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pmove/internal/introspect"
	"pmove/internal/storage"
)

// Columnar-engine behavior tests: out-of-order ingest equivalence,
// sealed-block oracle agreement (the dataset is pushed well past
// blockRows so compressed blocks, footers, and the head all
// participate), storage self-metrics, block-wise retention, and the
// compressed snapshot format (including the rejection of any other).

// rawRows materializes SELECT * for comparison.
func rawRows(t *testing.T, db *DB, meas string) []Row {
	t.Helper()
	res, err := db.ExecuteContext(context.Background(), QueryRequest{
		Query: &Query{Measurement: meas, Fields: []string{"*"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestOutOfOrderIngestSingle writes shuffled points one by one and
// asserts the scan equals the same data ingested pre-sorted.
func TestOutOfOrderIngestSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2 * blockRows // force seals while out-of-order points keep landing
	shuffled := rng.Perm(n)
	ooo, sorted := New(), New()
	for _, i := range shuffled {
		if err := ooo.WriteBatchContext(context.Background(), []Point{{
			Measurement: "m",
			Tags:        map[string]string{"tag": "t"},
			Fields:      map[string]float64{"f": float64(i) / 4},
			Time:        int64(i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := sorted.WriteBatchContext(context.Background(), []Point{{
			Measurement: "m",
			Tags:        map[string]string{"tag": "t"},
			Fields:      map[string]float64{"f": float64(i) / 4},
			Time:        int64(i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := rawRows(t, ooo, "m"), rawRows(t, sorted, "m")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-order single-point ingest diverges from sorted ingest (%d vs %d rows)", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("row %d out of order: %d after %d", i, got[i].Time, got[i-1].Time)
		}
	}
}

// TestOutOfOrderIngestBatched is the batch-write variant, with
// duplicate timestamps and multiple fields in the mix.
func TestOutOfOrderIngestBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 3 * blockRows
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := Point{
			Measurement: "m",
			Tags:        map[string]string{"tag": "t"},
			Fields:      map[string]float64{"f": float64(i) / 4},
			Time:        int64(rng.Intn(n / 2)), // heavy duplication
		}
		if i%3 == 0 {
			p.Fields["g"] = float64(-i) / 4
		}
		pts = append(pts, p)
	}
	db := New()
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t, db, "m")
	if len(rows) != n {
		t.Fatalf("%d rows, want %d", len(rows), n)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Time < rows[i-1].Time {
			t.Fatalf("row %d out of order: %d after %d", i, rows[i].Time, rows[i-1].Time)
		}
	}
	// Aggregates over the out-of-order data agree with the oracle.
	q := &Query{Measurement: "m", Aggregates: []Aggregate{
		{Fn: "count", Field: "f"}, {Fn: "sum", Field: "f"}, {Fn: "min", Field: "g"},
		{Fn: "max", Field: "f"}, {Fn: "mean", Field: "g"}, {Fn: "p", Field: "f", Pct: 90},
	}, GroupBy: 512}
	got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, SkipCache: true})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, 0, q, got, refExecute(pts, q))
}

// TestSealedBlockOracle drives the engine past several seals (multiple
// series, >4x blockRows points) and checks every aggregate against the
// row oracle — bit-identical for sum/count/min/max per the dyadic
// construction, 1e-9-relative for mean/pNN — across worker widths and
// time bounds that slice blocks mid-way (exercising both the footer
// fast path and the decode path).
func TestSealedBlockOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc01a))
	n := 4*blockRows + 1234
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{
			Measurement: "m",
			Tags:        map[string]string{"tag": []string{"x", "y"}[rng.Intn(2)]},
			Fields:      map[string]float64{"f": dyadic(rng)},
			Time:        int64(i),
		})
	}
	db := New()
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		// Whole-range, large windows: sealed blocks fold from footers.
		{Measurement: "m", Aggregates: []Aggregate{
			{Fn: "sum", Field: "f"}, {Fn: "count", Field: "f"},
			{Fn: "min", Field: "f"}, {Fn: "max", Field: "f"},
		}, GroupBy: int64(2 * blockRows)},
		// Percentiles force full decode.
		{Measurement: "m", Aggregates: []Aggregate{
			{Fn: "p", Field: "f", Pct: 99}, {Fn: "mean", Field: "f"},
		}, GroupBy: 1000},
		// Bounds slicing a block mid-way defeat the footer path.
		{Measurement: "m", Aggregates: []Aggregate{
			{Fn: "sum", Field: "f"}, {Fn: "count", Field: "f"},
		}, From: int64(blockRows / 2), To: int64(3*blockRows + 17)},
		// Tag filter: only one series' blocks scan.
		{Measurement: "m", TagFilter: map[string]string{"tag": "x"}, Aggregates: []Aggregate{
			{Fn: "sum", Field: "f"}, {Fn: "max", Field: "f"},
		}, GroupBy: 4096},
	}
	for qi, q := range queries {
		want := refExecute(pts, q)
		for _, workers := range []int{1, 4} {
			got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q, Workers: workers, SkipCache: true})
			if err != nil {
				t.Fatalf("query %d workers %d: %v", qi, workers, err)
			}
			compareResults(t, qi*100+workers, q, got, want)
		}
	}
}

// TestStorageGauges checks the storage self-metrics surface: bytes,
// blocks, compression ratio, and head samples land in the introspect
// registry and track seals and retention.
func TestStorageGauges(t *testing.T) {
	db := New()
	in := introspect.New()
	db.SetIntrospection(in)
	snap := func() introspect.Snapshot { return in.Metrics().Snapshot() }

	s0 := snap()
	for _, name := range []string{"storage.bytes", "storage.blocks", "storage.compression.ratio", "storage.head.samples"} {
		if _, ok := s0.Get(name); !ok {
			t.Fatalf("gauge %s not registered", name)
		}
	}
	n := blockRows + 100
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{
			Measurement: "m", Tags: map[string]string{"tag": "t"},
			Fields: map[string]float64{"f": float64(i % 17)}, Time: int64(i),
		})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	s1 := snap()
	if got := s1.GaugeValue("storage.blocks"); got != 1 {
		t.Fatalf("storage.blocks = %v, want 1", got)
	}
	if got := s1.GaugeValue("storage.head.samples"); got != 100 {
		t.Fatalf("storage.head.samples = %v, want 100", got)
	}
	if got := s1.GaugeValue("storage.bytes"); got <= 0 {
		t.Fatalf("storage.bytes = %v, want > 0", got)
	}
	if got := s1.GaugeValue("storage.compression.ratio"); got < 4 {
		t.Fatalf("storage.compression.ratio = %v, want >= 4 on telemetry-shaped data", got)
	}
	// Retention drains everything; the gauges must follow.
	db.SetRetention(RetentionPolicy{Name: "short", Duration: 1})
	if dropped := db.EnforceRetention(int64(n) * 10); dropped != n {
		t.Fatalf("dropped %d, want %d", dropped, n)
	}
	s2 := snap()
	if got := s2.GaugeValue("storage.blocks"); got != 0 {
		t.Fatalf("storage.blocks after retention = %v, want 0", got)
	}
	if got := s2.GaugeValue("storage.bytes"); got != 0 {
		t.Fatalf("storage.bytes after retention = %v, want 0", got)
	}
	if got := s2.GaugeValue("storage.head.samples"); got != 0 {
		t.Fatalf("storage.head.samples after retention = %v, want 0", got)
	}
}

// TestRetentionDropsWholeBlocks crosses several seal boundaries, then
// enforces a cutoff landing inside a sealed block: whole expired blocks
// unlink, the straddling block is rewritten, and the scan sees exactly
// the surviving rows.
func TestRetentionDropsWholeBlocks(t *testing.T) {
	db := New()
	n := 3*blockRows + 500
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{
			Measurement: "m", Tags: map[string]string{"tag": "t"},
			Fields: map[string]float64{"f": float64(i) / 4}, Time: int64(i),
		})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	cutoff := int64(blockRows + blockRows/2) // mid-second-block
	now := int64(n)
	db.SetRetention(RetentionPolicy{Name: "r", Duration: now - cutoff})
	if dropped := db.EnforceRetention(now); dropped != int(cutoff) {
		t.Fatalf("dropped %d, want %d", dropped, cutoff)
	}
	total, _ := db.CountValues("m")
	if total != uint64(n)-uint64(cutoff) {
		t.Fatalf("CountValues = %d, want %d", total, uint64(n)-uint64(cutoff))
	}
	rows := rawRows(t, db, "m")
	if len(rows) != n-int(cutoff) {
		t.Fatalf("%d rows, want %d", len(rows), n-int(cutoff))
	}
	if rows[0].Time != cutoff {
		t.Fatalf("first surviving row at %d, want %d", rows[0].Time, cutoff)
	}
	// A second enforcement with the same clock is a no-op.
	if dropped := db.EnforceRetention(now); dropped != 0 {
		t.Fatalf("re-enforcement dropped %d, want 0", dropped)
	}
}

// TestCompressedSnapshotRoundTrip seals several blocks, compacts, and
// recovers: the snapshot carries sealed blocks in compressed form and
// the recovered DB answers identically (rows, stats, value counts).
func TestCompressedSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	n := 2*blockRows + 333
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := Point{
			Measurement: "m", Tags: map[string]string{"host": []string{"a", "b"}[i%2]},
			Fields: map[string]float64{"f": float64(i) / 4}, Time: int64(i % (n / 3)), // duplicates + disorder
		}
		if i%5 == 0 {
			p.Fields["g"] = -float64(i)
		}
		pts = append(pts, p)
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// A few post-snapshot writes exercise snapshot+WAL overlap.
	for i := 0; i < 10; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{{
			Measurement: "late", Fields: map[string]float64{"v": float64(i)}, Time: int64(i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	wantRows := rawRows(t, db, "m")
	wantP, wantV := db.Stats()
	wantTotal, wantZeros := db.CountValues("m")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := rawRows(t, re, "m"); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("recovered rows diverge (%d vs %d)", len(got), len(wantRows))
	}
	if p, v := re.Stats(); p != wantP || v != wantV {
		t.Fatalf("recovered stats %d/%d, want %d/%d", p, v, wantP, wantV)
	}
	if total, zeros := re.CountValues("m"); total != wantTotal || zeros != wantZeros {
		t.Fatalf("recovered counts %d/%d, want %d/%d", total, zeros, wantTotal, wantZeros)
	}
	if got := rawRows(t, re, "late"); len(got) != 10 {
		t.Fatalf("post-snapshot WAL rows = %d, want 10", len(got))
	}
}

// TestSnapshotFormatRejected plants a snapshot without the columnar
// magic (a line-protocol dump, what the row engine wrote) beside a live
// WAL: Open must fail with ErrSnapshotFormat — not panic, not come up
// empty — and leave every file of the data directory byte-for-byte as
// it found it.
func TestSnapshotFormatRejected(t *testing.T) {
	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact([]byte("old,tag=t f=1 1\nold,tag=t f=2 2\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("old,tag=t f=3 3")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		out := map[string]string{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before := files()
	db, err := Open(dir, storage.FsyncAlways)
	if db != nil || !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("Open over a magic-less snapshot = (%v, %v), want ErrSnapshotFormat", db, err)
	}
	if want := "tsdb: recover " + dir + ": "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not start with %q", err, want)
	}
	if after := files(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed Open changed the data directory:\nbefore %q\nafter  %q", before, after)
	}
}

// TestSealBoundaryScan pins the block/head boundary: exactly blockRows
// points seal with an empty head, one more lands in the head, and both
// states answer raw and aggregate queries consistently.
func TestSealBoundaryScan(t *testing.T) {
	db := New()
	write := func(i int) {
		t.Helper()
		if err := db.WriteBatchContext(context.Background(), []Point{{
			Measurement: "m", Fields: map[string]float64{"f": float64(i) / 4}, Time: int64(i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < blockRows; i++ {
		write(i)
	}
	if rows := rawRows(t, db, "m"); len(rows) != blockRows {
		t.Fatalf("at seal boundary: %d rows, want %d", len(rows), blockRows)
	}
	res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: fmt.Sprintf(`SELECT count("f"), sum("f") FROM "m" WHERE time >= %d AND time <= %d`, 0, blockRows)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values["count(f)"] != float64(blockRows) {
		t.Fatalf("sealed count row = %+v", res.Rows)
	}
	write(blockRows)
	if rows := rawRows(t, db, "m"); len(rows) != blockRows+1 {
		t.Fatalf("after boundary: %d rows, want %d", len(rows), blockRows+1)
	}
}
