package docdb

import (
	"context"
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
	if n := c.Delete(&Filter{Eq: map[string]any{"kill": true}}); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
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

// TestClosedDurableDBRefusesMutations: reads survive Close, mutations
// are refused instead of going silently volatile.
func TestClosedDurableDBRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	if _, err := c.Insert(Doc{"keep": true}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := c.Insert(Doc{"lost": true}); err == nil {
		t.Fatal("closed durable DB accepted an insert")
	}
	if err := c.SetField("nope", "a", 1); err == nil {
		t.Fatal("closed durable DB accepted a setfield")
	}
	if n := c.Count(nil); n != 1 {
		t.Fatalf("closed DB unreadable or mutated: %d docs", n)
	}
}

// TestServerFlushOnClose: a wire-acknowledged insert survives server
// Close + crash even under fsync=never, because Close drains handlers
// and syncs before returning.
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
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := cli.InsertContext(context.Background(), "acked", Doc{"i": i})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, id := range ids {
		if _, ok := re.Collection("acked").Get(id); !ok {
			t.Fatalf("graceful shutdown lost acknowledged doc %q", id)
		}
	}
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
	c.Delete(&Filter{Eq: map[string]any{"tag": "t1"}})
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
