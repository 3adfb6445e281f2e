package tsdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pmove/internal/introspect"
)

func countQuery(measurement string) *Query {
	return &Query{
		Measurement: measurement,
		Aggregates:  []Aggregate{{Fn: "count", Field: "f"}},
	}
}

func execCount(t *testing.T, db *DB, measurement string) float64 {
	t.Helper()
	res, err := db.ExecuteContext(context.Background(), QueryRequest{Query: countQuery(measurement)})
	if err != nil {
		t.Fatalf("count query on %q: %v", measurement, err)
	}
	if len(res.Rows) == 0 {
		return 0
	}
	return res.Rows[0].Values[Aggregate{Fn: "count", Field: "f"}.Column()]
}

// TestQueryCacheHitMissCounters walks the observable cache lifecycle
// through the public DB surface: first aggregate execution misses and
// fills, a repeat hits, a write invalidates, and the next execution
// misses again AND reflects the new write.
func TestQueryCacheHitMissCounters(t *testing.T) {
	db := New()
	in := introspect.New(introspect.WithProcess("tsdb"))
	db.SetIntrospection(in)
	ctx := context.Background()

	write := func(ts int64) {
		t.Helper()
		if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Time: ts, Fields: map[string]float64{"f": 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	write(2)

	if got := execCount(t, db, "m"); got != 2 {
		t.Fatalf("count = %v, want 2", got)
	}
	if got := execCount(t, db, "m"); got != 2 {
		t.Fatalf("cached count = %v, want 2", got)
	}
	snap := in.Metrics().Snapshot()
	if h := snap.CounterValue("query.cache.hits"); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	if m := snap.CounterValue("query.cache.misses"); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
	if db.qcache.len() != 1 {
		t.Fatalf("cache len = %d, want 1", db.qcache.len())
	}

	// A write invalidates: the next execution must miss and see the
	// new point, not serve the stale cached count of 2.
	write(3)
	if got := execCount(t, db, "m"); got != 3 {
		t.Fatalf("post-write count = %v, want 3 (stale cache hit?)", got)
	}
	snap = in.Metrics().Snapshot()
	if m := snap.CounterValue("query.cache.misses"); m != 2 {
		t.Fatalf("misses = %d, want 2 after invalidation", m)
	}
	if inv := snap.CounterValue("query.cache.invalidations"); inv == 0 {
		t.Fatal("invalidations counter never incremented")
	}

	// SkipCache bypasses both lookup and fill.
	before := in.Metrics().Snapshot()
	if _, err := db.ExecuteContext(ctx, QueryRequest{Query: countQuery("m"), SkipCache: true}); err != nil {
		t.Fatal(err)
	}
	after := in.Metrics().Snapshot()
	if after.CounterValue("query.cache.hits") != before.CounterValue("query.cache.hits") ||
		after.CounterValue("query.cache.misses") != before.CounterValue("query.cache.misses") {
		t.Fatal("SkipCache touched the cache counters")
	}
}

// TestQueryCacheLRUEviction exercises the bounded LRU directly: the
// least recently used entry is evicted at capacity, and a get renews
// recency.
func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	in := introspect.New()
	c.setIntrospection(in)
	res := &Result{Measurement: "m", Columns: []string{"count(f)"}, Rows: []Row{{Time: 0, Values: map[string]float64{"count(f)": 1}}}}

	v := c.version("m")
	c.put("k1", "m", v, copyResult(res))
	c.put("k2", "m", v, copyResult(res))
	if _, ok := c.get("k1"); !ok { // renew k1 → k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	c.put("k3", "m", v, copyResult(res))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("k2"); ok {
		t.Fatal("k2 survived eviction despite being LRU")
	}
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 evicted despite renewed recency")
	}
	if ev := in.Metrics().Snapshot().CounterValue("query.cache.evictions"); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}

	// get hands out the resident result (the server only reads it);
	// ExecuteContext returns a private copy on a fill and on a hit, so an
	// embedded caller's mutation must not poison the cache.
	db := New()
	if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Time: 1, Fields: map[string]float64{"f": 1}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := db.ExecuteContext(context.Background(), QueryRequest{Query: countQuery("m")})
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows[0].Values["count(f)"] != 1 {
			t.Fatalf("execution %d: cache-resident result aliased by a caller mutation", i)
		}
		got.Rows[0].Values["count(f)"] = 999
	}
}

// TestQueryCachePutVersionRejected pins the core protocol: a fill
// whose pre-scan version snapshot has been outrun by an invalidation
// is discarded, never cached.
func TestQueryCachePutVersionRejected(t *testing.T) {
	c := newQueryCache(8)
	res := &Result{Measurement: "m"}
	v := c.version("m")
	c.invalidate("m") // write lands mid-scan
	c.put("k", "m", v, res)
	if c.len() != 0 {
		t.Fatal("stale fill was cached despite version bump")
	}
	// The fresh version is accepted.
	v2 := c.version("m")
	c.put("k", "m", v2, res)
	if c.len() != 1 {
		t.Fatal("current-version fill rejected")
	}
}

// TestQueryCacheRetentionInvalidates ensures the retention enforcer's
// bulk drop invalidates cached aggregates — including for measurements
// that were only ever read, never written after registration.
func TestQueryCacheRetentionInvalidates(t *testing.T) {
	db := New()
	db.SetRetention(RetentionPolicy{Name: "short", Duration: 100})
	for i := int64(1); i <= 4; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Time: i, Fields: map[string]float64{"f": 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := execCount(t, db, "m"); got != 4 {
		t.Fatalf("count = %v, want 4", got)
	}
	if db.qcache.len() != 1 {
		t.Fatalf("cache len = %d, want 1", db.qcache.len())
	}
	if dropped := db.EnforceRetention(1000); dropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	if db.qcache.len() != 0 {
		t.Fatalf("cache len = %d after retention, want 0", db.qcache.len())
	}
	if got := execCount(t, db, "m"); got != 0 {
		t.Fatalf("post-retention count = %v, want 0 (stale cache hit?)", got)
	}
}

// TestQueryCacheTortureNeverStale is the invalidation torture test:
// concurrent writers append points while concurrent queriers run the
// same cached count aggregate. The invariant under test is the cache's
// contract — a hit never returns data older than the last ACKNOWLEDGED
// write. Each querier snapshots the acked-write counter BEFORE issuing
// the query; since points only accumulate, the returned count must be
// >= that snapshot. A stale hit (filled before an acked write, served
// after) would violate it. Run under -race this also proves the
// version protocol itself is race-clean.
func TestQueryCacheTortureNeverStale(t *testing.T) {
	db := New()
	db.SetIntrospection(introspect.New())
	const (
		measurements = 3
		writers      = 2 // per measurement
		queriers     = 2 // per measurement
		writesEach   = 300
	)
	acked := make([]atomic.Int64, measurements)
	var wg sync.WaitGroup
	errs := make(chan error, measurements*(writers+queriers))

	for mi := 0; mi < measurements; mi++ {
		meas := fmt.Sprintf("t%d", mi)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(mi int, meas string, w int) {
				defer wg.Done()
				for i := 0; i < writesEach; i++ {
					p := Point{
						Measurement: meas,
						Time:        int64(w*writesEach + i + 1),
						Fields:      map[string]float64{"f": 1},
					}
					if err := db.WriteBatchContext(context.Background(), []Point{p}); err != nil {
						errs <- err
						return
					}
					// The write is acknowledged: every query issued from
					// here on must observe it.
					acked[mi].Add(1)
				}
			}(mi, meas, w)
		}
		for qd := 0; qd < queriers; qd++ {
			wg.Add(1)
			go func(mi int, meas string) {
				defer wg.Done()
				q := countQuery(meas)
				for {
					floor := acked[mi].Load()
					res, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q})
					if err != nil {
						errs <- err
						return
					}
					var count float64
					if len(res.Rows) > 0 {
						count = res.Rows[0].Values[Aggregate{Fn: "count", Field: "f"}.Column()]
					}
					if int64(count) < floor {
						errs <- fmt.Errorf("%s: cache served count %v older than %d acked writes", meas, count, floor)
						return
					}
					if floor == int64(writers*writesEach) {
						return
					}
				}
			}(mi, meas)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
