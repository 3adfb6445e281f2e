package tsdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"pmove/internal/storage"
)

func point(m string, t int64, v float64) Point {
	return Point{Measurement: m, Tags: map[string]string{"host": "a"}, Fields: map[string]float64{"value": v}, Time: t}
}

func countAll(t *testing.T, db *DB, m string) uint64 {
	t.Helper()
	total, _ := db.CountValues(m)
	return total
}

// TestDurableWriteCrashRecover: with fsync=always, every acknowledged
// point survives a crash (no loss), and recovery inserts it exactly
// once (no duplicates).
func TestDurableWriteCrashRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{point("cpu_idle", int64(i)*1000, float64(i))}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := countAll(t, re, "cpu_idle"); got != n {
		t.Fatalf("recovered %d values, want %d (fsync=always must lose nothing acknowledged)", got, n)
	}
	// Writes resume cleanly on the recovered store.
	if err := re.WriteBatchContext(context.Background(), []Point{point("cpu_idle", 99000, 99)}); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

// TestDurableCompactThenRecover: compaction folds the WAL into the
// snapshot without changing the recovered contents, and post-compaction
// writes land in the fresh WAL.
func TestDurableCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{point("m", int64(i), float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 10; i < 15; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{point("m", int64(i), float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer re.Close()
	if got := countAll(t, re, "m"); got != 15 {
		t.Fatalf("recovered %d values after compact, want 15", got)
	}
	res, err := re.ExecuteContext(context.Background(), QueryRequest{Statement: `SELECT value FROM m`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("query sees %d rows, want 15", len(res.Rows))
	}
}

// TestDurableTornTailRecovers: garbage appended to the WAL (the residue
// of a crash mid-append) is truncated on open — clean-prefix recovery,
// no panic, no error.
func TestDurableTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{point("m", int64(i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := db.WALPath()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn append: a frame header promising more payload than follows.
	torn, err := storage.AppendRecord(nil, 6, []byte("this tail will be cut"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer re.Close()
	if got := countAll(t, re, "m"); got != 5 {
		t.Fatalf("recovered %d values, want the 5-point clean prefix", got)
	}
}

// TestClosedDurableDBRefusesWrites: after Close or Crash the memory
// image stays readable, but writes and Compact fail with
// storage.ErrClosed instead of silently losing durability, and Close
// after either is a no-op.
func TestClosedDurableDBRefusesWrites(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		t.Run(end, func(t *testing.T) {
			db, err := Open(t.TempDir(), storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.WriteBatchContext(context.Background(), []Point{point("m", 1, 1)}); err != nil {
				t.Fatal(err)
			}
			stop := db.Close
			if end == "crash" {
				stop = db.Crash
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if err := db.WriteBatchContext(context.Background(), []Point{point("m", 2, 2)}); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("write after %s: %v, want storage.ErrClosed", end, err)
			}
			if err := db.Compact(); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("Compact after %s: %v, want storage.ErrClosed", end, err)
			}
			if got := countAll(t, db, "m"); got != 1 {
				t.Fatalf("closed DB no longer readable: %d values", got)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close after %s: %v", end, err)
			}
		})
	}
}

// TestServerFlushOnClose: an acknowledged wire write survives server
// Close + crash-reopen even under fsync=never — Close drains handlers
// and syncs the WAL before returning (the flush-on-close guarantee).
func TestServerFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := cli.WriteBatchContext(context.Background(), []Point{point("flushed", int64(i), float64(i))}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	// The crash discards anything unsynced; flush-on-close means that is
	// nothing.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := countAll(t, re, "flushed"); got != n {
		t.Fatalf("graceful shutdown lost acknowledged points: recovered %d, want %d", got, n)
	}
}

// TestDurableRecoveryIsByteIdentical: recovering twice from the same
// directory yields identical query results — recovery is a pure
// function of the files.
func TestDurableRecoveryIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := point("m", int64(i%3), float64(i)) // unordered timestamps exercise the insert path
		p.Fields[fmt.Sprintf("f%d", i)] = float64(i) * 2
		if err := db.WriteBatchContext(context.Background(), []Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	render := func() string {
		r, err := Open(dir, storage.FsyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		res, err := r.ExecuteContext(context.Background(), QueryRequest{Statement: `SELECT * FROM m`})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res)
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("recovery not deterministic:\n%s\nvs\n%s", a, b)
	}
}
