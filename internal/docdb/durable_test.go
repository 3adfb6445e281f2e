package docdb

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"pmove/internal/storage"
)

// TestDurableOpsCrashRecover: the full mutating op set (insert with
// generated ids, upsert, replace, setfield, delete) replays from the
// WAL to identical state after a crash, including the id-generation
// sequence.
func TestDurableOpsCrashRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("kb")
	id1, err := c.Insert(Doc{"name": "alpha", "n": 1})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Insert(Doc{"name": "beta", "n": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upsert(Doc{"_id": id2, "name": "beta2", "n": 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetField(id1, "meta.depth", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"name": "doomed", "kill": true}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Delete(&Filter{Eq: map[string]any{"kill": true}}); n != 1 || err != nil {
		t.Fatalf("deleted %d (err %v), want 1", n, err)
	}
	want := c.Find(nil)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rc := re.Collection("kb")
	got := rc.Find(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	// The id generator resumed past the recovered sequence: a fresh
	// insert must not collide with any recovered id.
	id3, err := rc.Insert(Doc{"name": "gamma"})
	if err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if id3 == id1 || id3 == id2 {
		t.Fatalf("recovered id generator re-issued %q", id3)
	}
}

// TestDurableCompactThenRecover: compaction preserves contents and the
// id sequence; post-compaction ops land in the fresh WAL.
func TestDurableCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Doc{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := c.Insert(Doc{"i": 5}); err != nil {
		t.Fatal(err)
	}
	want := c.Find(nil)
	db.Close()

	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Collection("col").Find(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compact recovery differs:\n got %v\nwant %v", got, want)
	}
	if n := len(got); n != 6 {
		t.Fatalf("recovered %d docs, want 6", n)
	}
}

// TestDurableTornTailRecovers: a torn final WAL record recovers to the
// clean prefix without error.
func TestDurableTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	for i := 0; i < 4; i++ {
		if _, err := c.Insert(Doc{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := db.WALPath()
	db.Close()
	torn, err := storage.AppendRecord(nil, 99, []byte(`{"op":"insert","c":"col","doc":{"_id":"torn"}}`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer re.Close()
	if n := re.Collection("col").Count(nil); n != 4 {
		t.Fatalf("recovered %d docs, want the 4-doc clean prefix", n)
	}
}

// TestClosedDurableDBRefusesMutations: reads survive Close and Crash,
// mutations and Compact are refused with storage.ErrClosed instead of
// going silently volatile, and Close after either is a no-op.
func TestClosedDurableDBRefusesMutations(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		t.Run(end, func(t *testing.T) {
			db, err := Open(t.TempDir(), storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			c := db.Collection("col")
			id, err := c.Insert(Doc{"keep": true})
			if err != nil {
				t.Fatal(err)
			}
			stop := db.Close
			if end == "crash" {
				stop = db.Crash
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert(Doc{"lost": true}); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("insert after %s: %v, want storage.ErrClosed", end, err)
			}
			if _, err := c.Upsert(Doc{"_id": id, "lost": true}); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("upsert after %s: %v, want storage.ErrClosed", end, err)
			}
			if err := c.SetField(id, "a", 1); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("setfield after %s: %v, want storage.ErrClosed", end, err)
			}
			if err := db.Compact(); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("Compact after %s: %v, want storage.ErrClosed", end, err)
			}
			if d, ok := c.Get(id); !ok || len(d) != 2 || c.Count(nil) != 1 {
				t.Fatalf("closed DB unreadable or mutated: %v, %d docs", d, c.Count(nil))
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close after %s: %v", end, err)
			}
		})
	}
}

// TestDeleteOnClosedDBReturnsErrClosed: a delete the WAL refused is an
// error, not "nothing matched", and deletes nothing.
func TestDeleteOnClosedDBReturnsErrClosed(t *testing.T) {
	db, err := Open(t.TempDir(), storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	if _, err := c.Insert(Doc{"_id": "a"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Delete(nil); n != 0 || !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Delete on a closed DB = %d, %v; want 0, storage.ErrClosed", n, err)
	}
	if c.Count(nil) != 1 {
		t.Fatal("a refused delete removed documents")
	}
}

// TestDeepestStoredDocumentReplays: the deepest document the store
// accepts comes back from WAL replay and from a snapshot, and one level
// deeper is refused by every write that brings a document in.
func TestDeepestStoredDocumentReplays(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	deepest := nest(1.0, maxDepth-storeDepth-1) // maxDepth-storeDepth objects
	deepest["_id"] = "a"
	if _, err := db.Collection("kb").Insert(deepest); err != nil {
		t.Fatalf("deepest document refused: %v", err)
	}
	c := db.Collection("kb")
	tooDeep := nest(1.0, maxDepth-storeDepth)
	refused := map[string]error{
		"insert":   func() error { _, err := c.Insert(tooDeep); return err }(),
		"replace":  c.Replace("a", tooDeep),
		"upsert":   func() error { _, err := c.Upsert(Doc{"_id": "a", "k": tooDeep}); return err }(),
		"setfield": c.SetField("a", "x", tooDeep),
	}
	for op, err := range refused {
		if !errors.Is(err, ErrUnencodable) {
			t.Errorf("%s of a document one level deeper: err = %v, want ErrUnencodable", op, err)
		}
	}
	for _, step := range []string{"wal replay", "snapshot"} {
		if step == "snapshot" {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(dir, storage.FsyncAlways); err != nil {
			t.Fatalf("reopen after %s: %v", step, err)
		}
		if got, _ := db.Collection("kb").Get("a"); !reflect.DeepEqual(got, deepest) {
			t.Fatalf("deepest document not recovered by %s", step)
		}
	}
	db.Close()
}

// TestDurableRecoveryDeterministic: recovery is a pure function of the
// directory contents.
func TestDurableRecoveryDeterministic(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	for i := 0; i < 6; i++ {
		if _, err := c.Insert(Doc{"i": i, "tag": fmt.Sprintf("t%d", i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete(&Filter{Eq: map[string]any{"tag": "t1"}}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	render := func() string {
		r, err := Open(dir, storage.FsyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return fmt.Sprintf("%v", r.Collection("col").Find(nil))
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("recovery not deterministic:\n%s\nvs\n%s", a, b)
	}
}
