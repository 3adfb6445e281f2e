package docdb

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pmove/internal/storage"
)

func TestInsertGeneratesIDs(t *testing.T) {
	db := New()
	c := db.Collection("kb")
	id1, err := c.Insert(Doc{"host": "skx"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Insert(Doc{"host": "icl"})
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" || id1 == id2 {
		t.Fatalf("ids %q %q", id1, id2)
	}
	got, ok := c.Get(id1)
	if !ok || got["host"] != "skx" {
		t.Fatalf("get: %v %v", got, ok)
	}
}

func TestInsertExplicitIDAndDuplicates(t *testing.T) {
	db := New()
	c := db.Collection("kb")
	if _, err := c.Insert(Doc{"_id": "x", "v": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"_id": "x", "v": 2}); err == nil {
		t.Fatal("duplicate _id accepted")
	}
	if _, err := c.Insert(nil); err == nil {
		t.Fatal("nil doc accepted")
	}
}

func TestStoredDocsAreIsolated(t *testing.T) {
	db := New()
	c := db.Collection("kb")
	d := Doc{"_id": "a", "nested": map[string]any{"k": "v"}}
	if _, err := c.Insert(d); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's doc must not affect the store.
	d["nested"].(map[string]any)["k"] = "mutated"
	got, _ := c.Get("a")
	if v, _ := got.Lookup("nested.k"); v != "v" {
		t.Errorf("store aliased caller memory: %v", v)
	}
	// Mutating a returned doc must not affect the store.
	got["nested"].(map[string]any)["k"] = "mutated2"
	got2, _ := c.Get("a")
	if v, _ := got2.Lookup("nested.k"); v != "v" {
		t.Errorf("reader aliased store memory: %v", v)
	}
}

func TestLookupPaths(t *testing.T) {
	d := Doc{
		"a": map[string]any{
			"b": []any{map[string]any{"c": 42.0}, "second"},
		},
	}
	if v, ok := d.Lookup("a.b.0.c"); !ok || v != 42.0 {
		t.Errorf("nested lookup = %v %v", v, ok)
	}
	if v, ok := d.Lookup("a.b.1"); !ok || v != "second" {
		t.Errorf("array lookup = %v %v", v, ok)
	}
	if _, ok := d.Lookup("a.b.9"); ok {
		t.Error("out-of-range index resolved")
	}
	if _, ok := d.Lookup("a.x"); ok {
		t.Error("missing key resolved")
	}
	if _, ok := d.Lookup("a.b.0.c.deeper"); ok {
		t.Error("descending into a scalar resolved")
	}
}

func TestFilters(t *testing.T) {
	db := New()
	c := db.Collection("entries")
	c.Insert(Doc{"_id": "1", "host": "skx", "kind": "ObservationInterface", "meta": map[string]any{"freq": 32}})
	c.Insert(Doc{"_id": "2", "host": "icl", "kind": "ObservationInterface"})
	c.Insert(Doc{"_id": "3", "host": "skx", "kind": "BenchmarkInterface"})

	if got := c.Find(&Filter{Eq: map[string]any{"host": "skx"}}); len(got) != 2 {
		t.Errorf("host filter: %d docs", len(got))
	}
	if got := c.Find(&Filter{Eq: map[string]any{"host": "skx", "kind": "BenchmarkInterface"}}); len(got) != 1 || got[0].ID() != "3" {
		t.Errorf("AND filter: %v", got)
	}
	// Numbers compare across int/float64 after JSON normalisation.
	if got := c.Find(&Filter{Eq: map[string]any{"meta.freq": 32}}); len(got) != 1 {
		t.Errorf("nested numeric filter: %d docs", len(got))
	}
	if got := c.Find(&Filter{Exists: []string{"meta"}}); len(got) != 1 {
		t.Errorf("exists filter: %d docs", len(got))
	}
	if got := c.Find(&Filter{Prefix: map[string]string{"kind": "Benchmark"}}); len(got) != 1 {
		t.Errorf("prefix filter: %d docs", len(got))
	}
	if got := c.Find(nil); len(got) != 3 {
		t.Errorf("nil filter: %d docs", len(got))
	}
	// Results are id-ordered.
	got := c.Find(nil)
	if got[0].ID() != "1" || got[2].ID() != "3" {
		t.Errorf("order: %v %v %v", got[0].ID(), got[1].ID(), got[2].ID())
	}
}

func TestFindOneAndCount(t *testing.T) {
	db := New()
	c := db.Collection("x")
	c.Insert(Doc{"_id": "b", "v": 1.0})
	c.Insert(Doc{"_id": "a", "v": 1.0})
	d, ok := c.FindOne(&Filter{Eq: map[string]any{"v": 1}})
	if !ok || d.ID() != "a" {
		t.Errorf("findOne = %v %v", d, ok)
	}
	if c.Count(nil) != 2 {
		t.Errorf("count = %d", c.Count(nil))
	}
	if _, ok := c.FindOne(&Filter{Eq: map[string]any{"v": 9}}); ok {
		t.Error("findOne matched nothing")
	}
}

func TestReplaceAndUpsert(t *testing.T) {
	db := New()
	c := db.Collection("x")
	if err := c.Replace("missing", Doc{"v": 1}); err == nil {
		t.Error("replace of missing doc accepted")
	}
	id, _ := c.Insert(Doc{"v": 1.0})
	if err := c.Replace(id, Doc{"v": 2.0}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(id)
	if got["v"] != 2.0 {
		t.Errorf("replace did not stick: %v", got)
	}
	// Upsert new and existing.
	uid, err := c.Upsert(Doc{"_id": "u1", "v": 1.0})
	if err != nil || uid != "u1" {
		t.Fatalf("upsert insert: %v %v", uid, err)
	}
	if _, err := c.Upsert(Doc{"_id": "u1", "v": 5.0}); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get("u1")
	if got["v"] != 5.0 {
		t.Errorf("upsert replace: %v", got)
	}
}

// TestUpsertFreshIDConcurrently: concurrent upserts of one fresh _id —
// the lost-ack retry of a checkpoint — all succeed, one inserting and
// the rest replacing, and the WAL replays the resolved ops to the same
// collection.
func TestUpsertFreshIDConcurrently(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("ckpt")
	const rounds, writers = 50, 16
	for r := 0; r < rounds; r++ {
		id := fmt.Sprintf("ckpt-%d", r)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := c.Upsert(Doc{"_id": id, "w": w}); err != nil {
					t.Errorf("upsert %s by writer %d: %v", id, w, err)
				}
			}(w)
		}
		wg.Wait()
	}
	want := c.Find(nil)
	if len(want) != rounds {
		t.Fatalf("%d documents, want %d", len(want), rounds)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatalf("replay of the upserts: %v", err)
	}
	defer re.Close()
	if got := re.Collection("ckpt").Find(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed upserts differ:\n got %v\nwant %v", got, want)
	}
}

func TestSetField(t *testing.T) {
	db := New()
	c := db.Collection("x")
	id, _ := c.Insert(Doc{"v": 1.0})
	if err := c.SetField(id, "report.summary", "done"); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(id)
	if v, _ := got.Lookup("report.summary"); v != "done" {
		t.Errorf("setfield: %v", v)
	}
	if err := c.SetField("missing", "a", 1); err == nil {
		t.Error("setfield on missing doc accepted")
	}
}

func TestDelete(t *testing.T) {
	db := New()
	c := db.Collection("x")
	c.Insert(Doc{"_id": "1", "host": "a"})
	c.Insert(Doc{"_id": "2", "host": "b"})
	if n := c.Delete(&Filter{Eq: map[string]any{"host": "a"}}); n != 1 {
		t.Errorf("deleted %d", n)
	}
	if c.Count(nil) != 1 {
		t.Error("delete removed the wrong docs")
	}
	if n := c.Delete(nil); n != 1 {
		t.Errorf("delete all removed %d", n)
	}
}

func TestCollectionsListing(t *testing.T) {
	db := New()
	db.Collection("b")
	db.Collection("a")
	db.Collection("a") // idempotent
	got := db.Collections()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("collections = %v", got)
	}
}

func TestFromValue(t *testing.T) {
	type payload struct {
		Host  string `json:"host"`
		Count int    `json:"count"`
	}
	d, err := FromValue(payload{Host: "skx", Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d["host"] != "skx" || d["count"] != 3.0 {
		t.Errorf("doc = %v", d)
	}
	if _, err := FromValue(make(chan int)); err == nil {
		t.Error("unencodable value accepted")
	}
}

func TestFilterNumericEqualityProperty(t *testing.T) {
	f := func(v int32) bool {
		d := Doc{"n": float64(v)}
		flt := &Filter{Eq: map[string]any{"n": int(v)}}
		return flt.Matches(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	db := New()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.InsertContext(context.Background(), "kb", Doc{"host": "skx", "kind": "meta"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetContext(context.Background(), "kb", id)
	if err != nil {
		t.Fatal(err)
	}
	if got["host"] != "skx" {
		t.Errorf("remote get: %v", got)
	}
	docs, err := c.FindContext(context.Background(), "kb", &Filter{Eq: map[string]any{"kind": "meta"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Errorf("remote find: %d docs", len(docs))
	}
	n, err := c.CountContext(context.Background(), "kb", nil)
	if err != nil || n != 1 {
		t.Errorf("remote count: %d %v", n, err)
	}
	if _, err := c.GetContext(context.Background(), "kb", "missing"); err == nil {
		t.Error("remote get of missing doc succeeded")
	}
}
