package tsdb

import (
	"context"
	"fmt"
	"math/rand"
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

// TestQueryCacheEqualWorkEvictsLeastRecent pins the tie rule: among
// entries of equal worth the least recently used leaves at capacity, a
// get renews recency, and a newcomer of that worth is admitted.
func TestQueryCacheEqualWorkEvictsLeastRecent(t *testing.T) {
	c := newQueryCache(2)
	in := introspect.New()
	c.setIntrospection(in)
	res := table{Measurement: "m", Columns: []string{"count(f)"}, Times: []int64{0}, Cols: [][]float64{{1}}}

	v := c.version("m")
	c.put("k1", "m", v, res, 1)
	c.put("k2", "m", v, res, 1)
	if _, ok := c.get("k1"); !ok { // renew k1 → k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	c.put("k3", "m", v, res, 1)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("k2"); ok {
		t.Fatal("k2 survived eviction despite being least recently used")
	}
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 evicted despite renewed recency")
	}
	if ev := in.Metrics().Snapshot().CounterValue("query.cache.evictions"); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestQueryCacheKeepsCostliest cycles 4 × cap statements of distinct
// worth twice, as a generated dashboard's refreshes do: on the second
// pass exactly the cap statements of highest work per cell hit, and
// every other fill is refused. LRU, which evicts each entry before its
// next use, hits none of them.
func TestQueryCacheKeepsCostliest(t *testing.T) {
	c := newQueryCache(0)
	in := introspect.New()
	c.setIntrospection(in)
	res := table{Measurement: "m", Columns: []string{"count(f)"}, Times: make([]int64, 1)}
	n := 4 * c.cap
	order := rand.New(rand.NewSource(37)).Perm(n) // statement i decodes i+1 cells
	v := c.version("m")
	var refused0 uint64
	for pass := 0; pass < 2; pass++ {
		refused0 = in.Metrics().Snapshot().CounterValue("query.cache.refused")
		for _, i := range order {
			key := fmt.Sprintf("s%d", i)
			_, hit := c.get(key)
			if pass == 1 && hit != (i >= n-c.cap) {
				t.Fatalf("second pass: statement %d, rank %d of %d by worth, hit %v", i, n-i, n, hit)
			}
			if !hit {
				c.put(key, "m", v, res, i+1)
			}
		}
	}
	snap := in.Metrics().Snapshot()
	if h, r := snap.CounterValue("query.cache.hits"), snap.CounterValue("query.cache.refused")-refused0; h != uint64(c.cap) || r != uint64(n-c.cap) {
		t.Fatalf("second pass: %d hits, %d refused; want %d and %d", h, r, c.cap, n-c.cap)
	}
}

// TestQueryCacheStaleLeavesFirst pins the first victim: a stale entry,
// however costly, leaves before a cheap current one, since it can never
// hit again.
func TestQueryCacheStaleLeavesFirst(t *testing.T) {
	c := newQueryCache(2)
	res := table{Measurement: "m"}
	c.put("cheap", "n", c.version("n"), res, 1)
	c.put("costly", "m", c.version("m"), res, 1000)
	c.invalidate("m")
	c.put("newcomer", "n", c.version("n"), res, 1)
	if _, ok := c.entries["costly"]; ok {
		t.Fatal("the stale costly entry outlived a cheap current one")
	}
	for _, k := range []string{"cheap", "newcomer"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing; want the stale entry evicted instead", k)
		}
	}
}

// TestQueryCacheRefusesCheapest fills a two-entry cache with two
// decode-heavy statements, then runs one a footer answers: cheaper per
// cell than every resident, its fill is refused and counted, and the
// scan's decoded cells are tallied all the same.
func TestQueryCacheRefusesCheapest(t *testing.T) {
	db := New()
	db.qcache = newQueryCache(2)
	in := introspect.New()
	db.SetIntrospection(in)
	var pts []Point
	for i := 0; i < 2*blockRows; i++ {
		pts = append(pts, Point{Measurement: "m", Time: int64(i), Fields: map[string]float64{"f": float64(i % 7)}})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	exec := func(stmt string) (cells, refused uint64) {
		t.Helper()
		before := in.Metrics().Snapshot()
		if _, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: stmt}); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		after := in.Metrics().Snapshot()
		return after.CounterValue("query.cells_decoded") - before.CounterValue("query.cells_decoded"),
			after.CounterValue("query.cache.refused") - before.CounterValue("query.cache.refused")
	}
	exec(`SELECT sum("f") FROM "m" WHERE time >= 10`)
	exec(`SELECT p50("f") FROM "m"`)
	// Both of the series' 4 096-row units fold from their footers: a cell each.
	if cells, refused := exec(`SELECT mean("f") FROM "m"`); cells != 2 || refused != 1 {
		t.Fatalf("footer-folded mean: %d cells decoded, %d refused; want 2 and 1", cells, refused)
	}
	if _, ok := db.qcache.entries[`SELECT mean("f") FROM "m"`]; ok || db.qcache.len() != 2 {
		t.Fatalf("after the refusal: mean resident %v, %d entries; want false and 2", ok, db.qcache.len())
	}
}

// TestQueryCacheAgingFreesIdleCostly pins aging: a costly entry nobody
// reads again, on a measurement nobody writes, holds its slot at first
// but gives it up within a few aging periods to a cheap panel set that
// is read.
func TestQueryCacheAgingFreesIdleCostly(t *testing.T) {
	c := newQueryCache(4)
	res := table{Measurement: "m", Columns: []string{"count(f)"}, Times: make([]int64, 1)}
	c.put("costly", "idle", c.version("idle"), res, 16) // worth 8: eight panels' worth
	period := agingFills * c.cap
	fills := 1
	for refresh := 0; fills < 4*period; refresh++ {
		for p := 0; p < 8; p++ {
			key := fmt.Sprintf("panel%d", p)
			if _, ok := c.get(key); !ok {
				c.put(key, "m", c.version("m"), res, 2) // worth 1
				fills++
			}
		}
		_, resident := c.entries["costly"]
		if fills < period && !resident {
			t.Fatalf("costly entry evicted after %d fills, before the first aging", fills)
		}
		if fills >= 4*period && resident {
			t.Fatalf("costly entry still resident after %d fills, four aging periods", fills)
		}
	}
}

// TestQueryCachePutVersionRejected pins the core protocol: a fill
// whose pre-scan version snapshot has been outrun by an invalidation
// is discarded, never cached.
func TestQueryCachePutVersionRejected(t *testing.T) {
	c := newQueryCache(8)
	res := table{Measurement: "m"}
	v := c.version("m")
	c.invalidate("m") // write lands mid-scan
	c.put("k", "m", v, res, 1)
	if c.len() != 0 {
		t.Fatal("stale fill was cached despite version bump")
	}
	// The fresh version is accepted.
	v2 := c.version("m")
	c.put("k", "m", v2, res, 1)
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

// TestQueryCacheStaleEntries pins what a write leaves resident: its
// measurement's entries stay, stale — a miss each — until a statement's
// refill replaces its entry in place; a fill of a statement not cached
// yet drops the stale rest, so statements that differ every refresh
// (a sliding window) hold one entry, not the cache's capacity.
func TestQueryCacheStaleEntries(t *testing.T) {
	c := newQueryCache(8)
	res := table{Measurement: "m"}
	v := c.version("m")
	c.put("k1", "m", v, res, 1)
	c.put("k2", "m", v, res, 1)
	c.put("q", "other", c.version("other"), res, 1)
	c.invalidate("m")
	if _, ok := c.get("k1"); ok || c.len() != 1 {
		t.Fatalf("after a write: k1 hit %v, %d current entries; want a miss and 1", ok, c.len())
	}
	v = c.version("m")
	c.put("k1", "m", v, res, 1)
	if _, ok := c.get("k1"); !ok || len(c.entries) != 3 {
		t.Fatalf("refill: k1 hit %v, %d resident; want a hit and 3 (k2 stale)", ok, len(c.entries))
	}
	c.put("k3", "m", v, res, 1)
	if _, ok := c.entries["k2"]; ok || len(c.entries) != 3 || c.len() != 3 {
		t.Fatalf("new statement: k2 resident %v, %d resident, %d current; want false, 3, 3", ok, len(c.entries), c.len())
	}
}

// mapScanCache is the map-walking cache the slice-and-cells one
// replaced: entries and a per-measurement index in maps, versions by
// name. It is kept as the reference its decisions must match.
type mapScanCache struct {
	cap                 int
	entries             map[string]*cacheEntry
	byMeas              map[string]map[string]struct{}
	meas                map[*cacheEntry]string
	versions            map[string]uint64
	clock               uint64
	fills               int
	evictions, refused  int
	hits, invalidations int
}

func newMapScanCache(capacity int) *mapScanCache {
	return &mapScanCache{cap: capacity, entries: map[string]*cacheEntry{}, byMeas: map[string]map[string]struct{}{},
		meas: map[*cacheEntry]string{}, versions: map[string]uint64{}}
}

func (c *mapScanCache) version(m string) uint64 {
	v, ok := c.versions[m]
	if !ok {
		c.versions[m] = 0
	}
	return v
}

func (c *mapScanCache) get(key string) bool {
	e, ok := c.entries[key]
	if !ok || e.version != c.versions[c.meas[e]] {
		return false
	}
	c.clock++
	e.priority, e.used = e.worth, c.clock
	c.hits++
	return true
}

func (c *mapScanCache) put(key, m string, version uint64, res table, cells int) {
	if c.versions[m] != version {
		return
	}
	if c.fills++; c.fills >= agingFills*c.cap {
		c.fills = 0
		for _, e := range c.entries {
			e.priority /= 2
		}
	}
	c.clock++
	worth := float64(cells) / float64(len(res.Times)*len(res.Columns)+1)
	if e, ok := c.entries[key]; ok {
		e.version, e.res, e.worth, e.priority, e.used = version, res, worth, worth, c.clock
		return
	}
	for k := range c.byMeas[m] {
		if e := c.entries[k]; e.version != version {
			c.remove(e)
		}
	}
	if len(c.entries) >= c.cap {
		var v *cacheEntry
		var vp float64
		for _, e := range c.entries {
			p := e.priority
			if e.version != c.versions[c.meas[e]] {
				p = -1
			}
			if v == nil || p < vp || (p == vp && e.used < v.used) {
				v, vp = e, p
			}
		}
		if vp > worth {
			c.refused++
			return
		}
		c.remove(v)
		c.evictions++
	}
	if c.byMeas[m] == nil {
		c.byMeas[m] = map[string]struct{}{}
	}
	e := &cacheEntry{key: key, version: version, res: res, worth: worth, priority: worth, used: c.clock}
	c.entries[key], c.meas[e] = e, m
	c.byMeas[m][key] = struct{}{}
}

func (c *mapScanCache) remove(e *cacheEntry) {
	m := c.meas[e]
	delete(c.entries, e.key)
	delete(c.meas, e)
	if delete(c.byMeas[m], e.key); len(c.byMeas[m]) == 0 {
		delete(c.byMeas, m)
	}
}

func (c *mapScanCache) invalidate(m string) { c.versions[m]++; c.invalidations++ }

func (c *mapScanCache) invalidateAll() {
	for m := range c.versions {
		c.versions[m]++
	}
	c.invalidations++
	clear(c.entries)
	clear(c.byMeas)
	clear(c.meas)
}

// TestQueryCacheSameDecisions drives the cache and the map-walking
// reference through one seeded sequence of fills (some outrun by a
// write mid-scan), hits, invalidations, invalidateAll and the agings
// the fills bring, at capacities 8 and 256. After every step both hold
// the same entries with the same version, priority and recency, and
// agree on every hit, eviction and refusal — so every victim and every
// refusal was the reference's.
func TestQueryCacheSameDecisions(t *testing.T) {
	for _, capacity := range []int{8, 256} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c, ref := newQueryCache(capacity), newMapScanCache(capacity)
			in := introspect.New()
			c.setIntrospection(in)
			rng := rand.New(rand.NewSource(int64(capacity)))
			res := table{Measurement: "m", Columns: []string{"count(f)"}, Times: make([]int64, 1)}
			nMeas := capacity/8 + 2
			keys, meas := make([]string, 4*capacity), make([]string, 4*capacity)
			for i := range keys {
				keys[i], meas[i] = fmt.Sprintf("s%d", i), fmt.Sprintf("m%d", rng.Intn(nMeas))
			}
			steps := 12 * agingFills * capacity
			for step := 0; step < steps; step++ {
				i := rng.Intn(len(keys))
				switch op := rng.Intn(1000); {
				case op < 950: // a refresh: a hit, or a fill at one of a few worths
					_, hit := c.get(keys[i])
					if want := ref.get(keys[i]); hit != want {
						t.Fatalf("step %d: get %s hit %v, reference %v", step, keys[i], hit, want)
					}
					if !hit {
						cells := 1 << rng.Intn(6)
						v, rv := c.version(meas[i]), ref.version(meas[i])
						if rng.Intn(20) == 0 { // a write lands mid-scan
							c.invalidate(meas[i])
							ref.invalidate(meas[i])
						}
						c.put(keys[i], meas[i], v, res, cells)
						ref.put(keys[i], meas[i], rv, res, cells)
					}
				case op < 999:
					m := fmt.Sprintf("m%d", rng.Intn(nMeas))
					c.invalidate(m)
					ref.invalidate(m)
				default:
					c.invalidateAll()
					ref.invalidateAll()
				}
				compareCaches(t, step, c, ref, in)
			}
			snap := in.Metrics().Snapshot()
			t.Logf("%d steps: %d hits, %d evictions, %d refused", steps, snap.CounterValue("query.cache.hits"),
				snap.CounterValue("query.cache.evictions"), snap.CounterValue("query.cache.refused"))
			if ref.evictions == 0 || ref.refused == 0 || ref.hits == 0 {
				t.Fatalf("sequence too tame: %d evictions, %d refused, %d hits", ref.evictions, ref.refused, ref.hits)
			}
		})
	}
}

// compareCaches fails unless c holds what ref holds and counted what
// ref counted.
func compareCaches(t *testing.T, step int, c *queryCache, ref *mapScanCache, in *introspect.Introspector) {
	t.Helper()
	if len(c.entries) != len(ref.entries) || len(c.slots) != len(c.entries) {
		t.Fatalf("step %d: %d entries in %d slots, reference %d", step, len(c.entries), len(c.slots), len(ref.entries))
	}
	for i, e := range c.slots {
		r := ref.entries[e.key]
		switch {
		case e.idx != i || c.entries[e.key] != e:
			t.Fatalf("step %d: %s in slot %d records %d", step, e.key, i, e.idx)
		case r == nil:
			t.Fatalf("step %d: %s resident, not in the reference", step, e.key)
		case e.version != r.version || e.priority != r.priority || e.used != r.used || *e.cur != ref.versions[ref.meas[r]]:
			t.Fatalf("step %d: %s at version %d of %d, priority %v, used %d; reference %d of %d, %v, %d", step, e.key,
				e.version, *e.cur, e.priority, e.used, r.version, ref.versions[ref.meas[r]], r.priority, r.used)
		}
	}
	snap := in.Metrics().Snapshot()
	for name, want := range map[string]int{"evictions": ref.evictions, "refused": ref.refused,
		"hits": ref.hits, "invalidations": ref.invalidations} {
		if got := snap.CounterValue("query.cache." + name); got != uint64(want) {
			t.Fatalf("step %d: %s %d, reference %d", step, name, got, want)
		}
	}
}

// BenchmarkQueryCacheFill puts new statements into a full 256-entry
// cache, a dashboard larger than the cache refreshing: each fill sweeps
// its measurement's stale entries and evicts a victim, and every
// 10·cap fills age every priority.
func BenchmarkQueryCacheFill(b *testing.B) {
	c := newQueryCache(defaultQueryCacheCap)
	res := table{Measurement: "m", Columns: []string{"mean(f)"}, Times: make([]int64, 16)}
	keys, meas := make([]string, 4096), make([]string, 64)
	for i := range meas {
		meas[i] = fmt.Sprintf("m%d", i)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf(`SELECT mean("f") FROM "m%d" WHERE time >= %d GROUP BY time(16s)`, i%len(meas), i)
	}
	fill := func(i int) {
		m := meas[i%len(meas)]
		c.put(keys[i%len(keys)], m, c.version(m), res, 1000)
	}
	for i := 0; i < defaultQueryCacheCap; i++ {
		fill(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(defaultQueryCacheCap + i)
	}
}
