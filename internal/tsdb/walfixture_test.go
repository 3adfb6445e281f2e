package tsdb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmove/internal/storage"
)

// WAL compatibility with the writer the append-style codec replaced.
// testdata/wal_pr12.bin is the wal.log the parent commit (PR 12, the
// strings.Builder/Replacer encoder and EncodeBatchBody over gathered
// lines) wrote for fixtureBatches under fsync=always.

// fixtureBatches is the fixed input of the fixture: multi-point batches,
// one single-point record (a plain line body, no envelope), names with
// every escape byte, a name ending in a backslash, 0-tag points, a wide
// row whose lines need a two-byte length in the envelope, and values
// from ±0 and denormals to the float64 extremes.
func fixtureBatches() [][]Point {
	rng := rand.New(rand.NewSource(12))
	values := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e21, 1e-7, 123456789}
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return values[rng.Intn(len(values))]
		}
		return math.Round(rng.NormFloat64()*1e6) / 1e3
	}
	var out [][]Point
	// Two plain series, the shape a telemetry tick writes.
	for b := 0; b < 3; b++ {
		var batch []Point
		for r := 0; r < 40; r++ {
			p := Point{Measurement: "kernel_percpu_cpu_idle", Tags: map[string]string{"host": "skx", "tag": fmt.Sprintf("t%d", r%2)},
				Fields: map[string]float64{}, Time: int64(b*40+r) * 250_000_000}
			for c := 0; c < 8; c++ {
				p.Fields[fmt.Sprintf("_cpu%d", c)] = value()
			}
			batch = append(batch, p)
		}
		out = append(out, batch)
	}
	// The single-point record.
	out = append(out, []Point{{Measurement: `single\`, Fields: map[string]float64{"v": 1.5}, Time: math.MinInt64}})
	// Escapes everywhere, timestamps at both ends, no tags on some.
	var esc []Point
	for r := 0; r < 24; r++ {
		p := Point{Measurement: `m s,c=e\b`, Fields: map[string]float64{`f ,=\`: value(), "plain": value()}, Time: math.MaxInt64 - int64(r)}
		if r%3 != 0 {
			p.Tags = map[string]string{`k ,=\`: `v ,=\`, "n": fmt.Sprint(r % 2)}
		}
		esc = append(esc, p)
	}
	out = append(out, esc)
	// One PMU metric across 88 hardware threads, twice.
	var wide []Point
	for r := 0; r < 2; r++ {
		p := Point{Measurement: "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE", Tags: map[string]string{"host": "skx"},
			Fields: map[string]float64{}, Time: int64(r) * 1_000_000_000}
		for c := 0; c < 88; c++ {
			p.Fields[fmt.Sprintf("_cpu%d", c)] = value()
		}
		wide = append(wide, p)
	}
	return append(out, wide)
}

// writeFixture writes fixtureBatches into a fresh data directory and
// returns the bytes of its WAL.
func writeFixture(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fixtureBatches() {
		if err := db.WriteBatchContext(context.Background(), b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	path := db.WALPath()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return walLog(t, path)
}

// sameAsFixture fails unless got is the fixture's wal.log, byte for
// byte. The fixture predates the zero extent, so it is a log alone.
func sameAsFixture(t *testing.T, got []byte, writer string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "wal_pr12.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("WAL written %s differs from the PR 12 writer's: %d bytes vs %d, first difference at offset %d", writer, len(got), len(want), n)
	}
}

func TestWALFixtureSameBytes(t *testing.T) {
	sameAsFixture(t, writeFixture(t), "by the embedded store")
}

// The same batches through Client → Server → durable DB: the plain rows
// reach the WAL as the lines the client sent, the escaped ones are
// encoded again from their scanned rows, and both land on the fixture.
func TestWALFixtureSameBytesOverWire(t *testing.T) {
	db, err := Open(t.TempDir(), storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fixtureBatches() {
		if err := c.WriteBatchContext(context.Background(), b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	c.Close()
	srv.Close()
	path := db.WALPath()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sameAsFixture(t, walLog(t, path), "over the wire")
}

func TestWALFixtureReplays(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "wal_pr12.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("open the PR 12 WAL: %v", err)
	}
	defer db.Close()

	// The same input through the in-memory store is what replay must
	// have rebuilt.
	want := New()
	for _, b := range fixtureBatches() {
		if err := want.WriteBatchContext(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	// 3×40 + 1 + 24 + 2 rows; 120×8 + 1 + 24×2 + 2×88 values.
	if p, v := db.Stats(); p != 147 || v != 1185 {
		t.Fatalf("recovered Stats() = %d rows, %d values; want 147, 1185", p, v)
	}
	if got, want := db.Measurements(), want.Measurements(); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 4 {
		t.Fatalf("recovered measurements %q, want %q", got, want)
	}
	reqs := []QueryRequest{
		{Statement: `SELECT * FROM "kernel_percpu_cpu_idle"`},
		{Statement: `SELECT "_cpu3" FROM "kernel_percpu_cpu_idle" WHERE "tag" = 't1'`},
		{Statement: `SELECT mean("_cpu0"), max("_cpu7"), count("_cpu1") FROM "kernel_percpu_cpu_idle"`},
		{Statement: `SELECT sum("_cpu87") FROM "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE"`},
		// Names the SELECT grammar would need its own escapes for.
		{Query: &Query{Measurement: `single\`, Fields: []string{"*"}}},
		{Query: &Query{Measurement: `m s,c=e\b`, Fields: []string{"*"}}},
		{Query: &Query{Measurement: `m s,c=e\b`, Fields: []string{`f ,=\`}, TagFilter: map[string]string{`k ,=\`: `v ,=\`}}},
	}
	for _, req := range reqs {
		stmt := req.Statement
		if req.Query != nil {
			stmt = req.Query.String()
		}
		g, err := db.ExecuteContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		w, err := want.ExecuteContext(context.Background(), req)
		if err != nil {
			t.Fatalf("%s on the reference store: %v", stmt, err)
		}
		if len(g.Rows) == 0 || fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: recovered store answers\n%v\nthe reference store\n%v", stmt, g, w)
		}
	}
}
