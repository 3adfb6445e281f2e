package docdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"pmove/internal/storage"
)

// TestDurableOpsCrashRecover: upserts that insert and upserts that
// replace, across collections, replay from the WAL to identical state
// after a crash, and the recovered store takes further upserts.
func TestDurableOpsCrashRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("kb")
	for _, d := range []Doc{
		{"_id": "alpha", "n": 1},
		{"_id": "beta", "n": 2},
		{"_id": "beta", "name": "beta2", "meta": map[string]any{"depth": 3}},
		{"_id": "gamma", "n": 3},
		{"_id": "alpha", "n": 4},
	} {
		if _, err := c.Upsert(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Collection("meta").Upsert(Doc{"_id": "kb", "v": 1}); err != nil {
		t.Fatal(err)
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
	if got := rc.Find(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	if got, _ := re.Collection("meta").Get("kb"); !reflect.DeepEqual(got, Doc{"_id": "kb", "v": 1.0}) {
		t.Fatalf("second collection recovered as %v", got)
	}
	if _, err := rc.Upsert(Doc{"_id": "delta"}); err != nil {
		t.Fatalf("post-recovery upsert: %v", err)
	}
}

// TestDurableCompactThenRecover: compaction preserves contents;
// post-compaction upserts land in the fresh WAL.
func TestDurableCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("col")
	for i := 0; i < 5; i++ {
		if _, err := c.Upsert(Doc{"_id": fmt.Sprint(i), "i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, i := range []int{5, 0} {
		if _, err := c.Upsert(Doc{"_id": fmt.Sprint(i), "i": i, "after": true}); err != nil {
			t.Fatal(err)
		}
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
		if _, err := c.Upsert(Doc{"_id": fmt.Sprint(i), "i": i}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := db.WALPath()
	db.Close()
	torn, err := storage.AppendRecord(nil, 99, []byte(`{"op":"replace","c":"col","doc":{"_id":"torn"},"id":"torn"}`))
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
	if n := len(re.Collection("col").Find(nil)); n != 4 {
		t.Fatalf("recovered %d docs, want the 4-doc clean prefix", n)
	}
}

// TestClosedDurableDBRefusesMutations: reads survive Close and Crash,
// upserts and Compact are refused with storage.ErrClosed instead of
// going silently volatile, and Close after either is a no-op.
func TestClosedDurableDBRefusesMutations(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		t.Run(end, func(t *testing.T) {
			db, err := Open(t.TempDir(), storage.FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			c := db.Collection("col")
			id, err := c.Upsert(Doc{"_id": "a", "keep": true})
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
			if _, err := c.Upsert(Doc{"_id": "b", "lost": true}); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("upsert of a new id after %s: %v, want storage.ErrClosed", end, err)
			}
			if _, err := c.Upsert(Doc{"_id": id, "lost": true}); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("upsert of a stored id after %s: %v, want storage.ErrClosed", end, err)
			}
			if err := db.Compact(); !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("Compact after %s: %v, want storage.ErrClosed", end, err)
			}
			if d, ok := c.Get(id); !ok || len(d) != 2 || len(c.Find(nil)) != 1 {
				t.Fatalf("closed DB unreadable or mutated: %v, %d docs", d, len(c.Find(nil)))
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close after %s: %v", end, err)
			}
		})
	}
}

// TestDeepestStoredDocumentReplays: the deepest document the store
// accepts comes back from WAL replay and from a snapshot, and one level
// deeper is refused, whether the upsert would insert or replace.
func TestDeepestStoredDocumentReplays(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	deepest := nest(1.0, maxDepth-storeDepth-1) // maxDepth-storeDepth objects
	deepest["_id"] = "a"
	if _, err := db.Collection("kb").Upsert(deepest); err != nil {
		t.Fatalf("deepest document refused: %v", err)
	}
	c := db.Collection("kb")
	for _, id := range []string{"a", "b"} {
		tooDeep := nest(1.0, maxDepth-storeDepth)
		tooDeep["_id"] = id
		if _, err := c.Upsert(tooDeep); !errors.Is(err, ErrUnencodable) {
			t.Errorf("upsert of %s one level deeper: err = %v, want ErrUnencodable", id, err)
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
	for i := 0; i < 9; i++ {
		if _, err := c.Upsert(Doc{"_id": fmt.Sprint(i % 6), "i": i, "tag": fmt.Sprintf("t%d", i%2)}); err != nil {
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
		return fmt.Sprintf("%v", r.Collection("col").Find(nil))
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("recovery not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// walSize is the length of the DB's log: storage.DecodeAll's clean
// prefix of wal.log, past which the file holds only its zero extent.
func walSize(t *testing.T, db *DB) int {
	t.Helper()
	img, err := os.ReadFile(db.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := storage.DecodeAll(img)
	if err != nil || len(bytes.TrimLeft(img[n:], "\x00")) != 0 {
		t.Fatalf("wal.log is not a clean %d-byte log and its zero extent (%v)", n, err)
	}
	return n
}

// TestUpsertWithoutIDIsRefused: a document with no string _id — none,
// an empty one, a number, or no document at all — is an error, and
// neither the documents nor the WAL change.
func TestUpsertWithoutIDIsRefused(t *testing.T) {
	db, err := Open(t.TempDir(), storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Collection("kb")
	if _, err := c.Upsert(Doc{"_id": "a", "v": 1.0}); err != nil {
		t.Fatal(err)
	}
	size := walSize(t, db)
	for _, d := range []Doc{nil, {}, {"v": 2.0}, {"_id": ""}, {"_id": 7.0, "v": 2.0}} {
		if id, err := c.Upsert(d); err == nil || id != "" {
			t.Errorf("upsert of %v = %q, %v; want an error", d, id, err)
		}
	}
	if got := c.Find(nil); !reflect.DeepEqual(got, []Doc{{"_id": "a", "v": 1.0}}) {
		t.Errorf("refused upserts changed the documents: %v", got)
	}
	if n := walSize(t, db); n != size {
		t.Errorf("refused upserts reached the WAL: %d -> %d bytes", size, n)
	}
}

// TestOpensDataDirOfGeneratedIDs: a data directory written when the
// store generated ids and logged inserts apart from replaces opens with
// exactly its documents. Its snapshot carries each collection's id
// sequence, and its WAL insert records carry theirs.
func TestOpensDataDirOfGeneratedIDs(t *testing.T) {
	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := `{"collections":{"kb":{"seq":2,"docs":{` +
		`"kb-00000001":{"_id":"kb-00000001","v":1},` +
		`"kb-00000002":{"_id":"kb-00000002","v":2}}},` +
		`"meta":{"seq":0,"docs":{"m":{"_id":"m","n":{"k":[1,"x"]}}}}}}`
	if err := st.Compact([]byte(snapshot)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		`{"op":"insert","c":"kb","doc":{"_id":"kb-00000003","v":3},"seq":3}`,
		`{"op":"insert","c":"kb","doc":{"_id":"named","v":4},"seq":3}`,
		`{"op":"replace","c":"kb","doc":{"_id":"kb-00000001","w":5},"id":"kb-00000001"}`,
		`{"op":"insert","c":"entries","doc":{"_id":"e","host":"skx"}}`,
		`{"op":"replace","c":"meta","doc":{"_id":"m","n":6},"id":"m"}`,
	} {
		if _, err := st.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := map[string][]Doc{
		"kb": {
			{"_id": "kb-00000001", "w": 5.0},
			{"_id": "kb-00000002", "v": 2.0},
			{"_id": "kb-00000003", "v": 3.0},
			{"_id": "named", "v": 4.0},
		},
		"meta":    {{"_id": "m", "n": 6.0}},
		"entries": {{"_id": "e", "host": "skx"}},
	}
	for name, docs := range want {
		if got := db.Collection(name).Find(nil); !reflect.DeepEqual(got, docs) {
			t.Errorf("%s opened as %v, want %v", name, got, docs)
		}
	}
}
