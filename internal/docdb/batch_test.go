package docdb

import (
	"context"
	"strings"
	"testing"
)

// TestClientInsertBatch: the insertb op lands a whole batch in one
// round-trip, ids come back in batch order, and an invalid doc
// mid-batch reports the applied prefix (at-least-once, non-atomic —
// unlike the tsdb batch path).
func TestClientInsertBatch(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	docs := []Doc{
		{"name": "a"},
		{"name": "b"},
		{"name": "c"},
	}
	ids, err := c.InsertBatchContext(context.Background(), "jobs", docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d ids, want 3", len(ids))
	}
	seen := map[string]bool{}
	for i, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("id %d = %q: empty or duplicate", i, id)
		}
		seen[id] = true
	}
	if n := db.Collection("jobs").Count(nil); n != 3 {
		t.Fatalf("collection holds %d docs, want 3", n)
	}

	// Empty batch: no round-trip, no error.
	if ids, err := c.InsertBatchContext(context.Background(), "jobs", nil); err != nil || len(ids) != 0 {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}

	// A rejected doc mid-batch: the error names the index and applied
	// count, the prefix stays (documented non-atomicity).
	bad := []Doc{
		{"_id": "dup", "name": "ok"},
		{"_id": "dup", "name": "rejected"}, // duplicate _id is rejected by Insert
		{"name": "never-reached"},
	}
	prefix, err := c.InsertBatchContext(context.Background(), "jobs", bad)
	if err == nil {
		t.Fatal("invalid doc accepted")
	}
	if !strings.Contains(err.Error(), "batch doc 1") || !strings.Contains(err.Error(), "1 applied") {
		t.Fatalf("error does not report index/applied: %v", err)
	}
	if len(prefix) != 1 {
		t.Fatalf("applied prefix ids = %v, want 1 id", prefix)
	}
	if n := db.Collection("jobs").Count(nil); n != 4 {
		t.Fatalf("collection holds %d docs, want 4 (3 + applied prefix of 1)", n)
	}
}
