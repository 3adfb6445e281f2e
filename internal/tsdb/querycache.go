package tsdb

import (
	"container/list"
	"strings"
	"sync"

	"pmove/internal/introspect"
)

// queryCache memoizes aggregate query results keyed on the canonical
// Query.String() rendering. Correctness is version-based: a reader
// snapshots the queried measurement's version BEFORE scanning, and the
// fill is accepted only if the version is unchanged when the scan
// completes — a write that lands mid-scan bumps the version (before
// the write is acknowledged), so a stale fill is rejected instead of
// cached. An entry keeps the version it was filled at and a hit
// requires it to be current, so a write invalidates by bumping the
// version alone. A stale entry is refilled in place by its statement's
// next execution, so a dashboard's fixed panel set costs no churn; a
// fill of a statement not cached yet first drops its measurement's
// stale entries, so sliding-window statements never pile up. A cache
// hit therefore never returns data older than the last acknowledged
// write to that measurement.
//
// The cache is a bounded LRU; hit/miss/evict/invalidation counts are
// exported as pmove.self.query.cache.* when introspection is attached.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List               // front = most recently used
	entries map[string]*list.Element // canonical statement → element
	byMeas  map[string]map[string]struct{}
	// versions counts acknowledged invalidations per measurement. A
	// measurement is registered on first read so a later invalidation
	// (including invalidateAll) always outruns an in-flight fill.
	versions map[string]uint64

	hits, misses, evictions, invalidations *introspect.Counter
	// Aggregate scan units by how they were answered (query.units_*).
	unitsFooter, unitsDecoded, unitsHead *introspect.Counter
}

// cacheEntry holds a result nothing writes after put: get hands out res
// itself, which every caller that hits it reads concurrently.
type cacheEntry struct {
	key         string
	measurement string
	version     uint64 // the measurement's version res was computed at
	res         *Result
}

// defaultQueryCacheCap bounds the cache; dashboards re-issue a small
// working set of canonical queries, so a few hundred entries suffice.
const defaultQueryCacheCap = 256

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = defaultQueryCacheCap
	}
	return &queryCache{
		cap:      capacity,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
		byMeas:   map[string]map[string]struct{}{},
		versions: map[string]uint64{},
	}
}

// setIntrospection attaches the self-observability counters. All
// counter methods are nil-safe, so the cache works unwired.
func (c *queryCache) setIntrospection(in *introspect.Introspector) {
	m := in.Metrics()
	c.mu.Lock()
	c.hits = m.Counter("query.cache.hits")
	c.misses = m.Counter("query.cache.misses")
	c.evictions = m.Counter("query.cache.evictions")
	c.invalidations = m.Counter("query.cache.invalidations")
	c.unitsFooter = m.Counter("query.units_footer")
	c.unitsDecoded = m.Counter("query.units_decoded")
	c.unitsHead = m.Counter("query.units_head")
	c.mu.Unlock()
}

// countUnits adds one aggregate scan's units, by how they were answered:
// query.units_footer counts the units folded from their footers, with
// or without their percentile values decoded; query.units_decoded the
// sealed blocks and query.units_head the heads whose time column
// decoded.
func (c *queryCache) countUnits(footer, decoded, head int) {
	c.mu.Lock()
	c.unitsFooter.Add(uint64(footer))
	c.unitsDecoded.Add(uint64(decoded))
	c.unitsHead.Add(uint64(head))
	c.mu.Unlock()
}

// version snapshots (registering if new) the measurement's version.
// Callers take it before scanning and hand it back to put.
func (c *queryCache) version(measurement string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.versions[measurement]
	if !ok {
		// Register so invalidateAll bumps this measurement too, even if
		// no targeted write ever touches it (retention drops).
		c.versions[measurement] = 0
	}
	return v
}

// get returns the cached result for key, if any, for reading only.
func (c *queryCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != c.versions[e.measurement] {
		c.misses.Inc()
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(el)
	res := e.res
	c.hits.Inc()
	c.mu.Unlock()
	return res, true
}

// put caches res under key iff the measurement's version still equals
// the pre-scan snapshot — otherwise a write landed mid-scan and the
// fill is discarded. From here on res is read, never written.
func (c *queryCache) put(key, measurement string, version uint64, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.versions[measurement] != version {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.version, e.res = version, res
		c.lru.MoveToFront(el)
		return
	}
	set := c.byMeas[measurement]
	for k := range set {
		if el := c.entries[k]; el.Value.(*cacheEntry).version != version {
			c.evictLocked(el)
		}
	}
	if set = c.byMeas[measurement]; set == nil {
		set = map[string]struct{}{}
		c.byMeas[measurement] = set
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, measurement: measurement, version: version, res: res})
	set[key] = struct{}{}
	for c.lru.Len() > c.cap {
		c.evictLocked(c.lru.Back())
		c.evictions.Inc()
	}
}

// evictLocked removes one element. Callers hold c.mu.
func (c *queryCache) evictLocked(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	if set := c.byMeas[e.measurement]; set != nil {
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.byMeas, e.measurement)
		}
	}
}

// invalidate bumps the measurement's version, which makes every cached
// result of it stale. Writers call it after the write is visible in memory
// and before acknowledging, so acknowledged data is never shadowed by
// a stale hit.
func (c *queryCache) invalidate(measurement string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.versions[measurement]
	if !ok {
		// A new key outlives the write: do not pin the line it was cut from.
		measurement = strings.Clone(measurement)
	}
	c.versions[measurement] = v + 1
	c.invalidations.Inc()
}

// invalidateAll drops everything and bumps every registered version —
// the retention enforcer's path, where many measurements shrink at
// once.
func (c *queryCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for m := range c.versions {
		c.versions[m]++
	}
	c.invalidations.Inc()
	for c.lru.Len() > 0 {
		c.evictLocked(c.lru.Back())
	}
}

// len returns the count of entries a hit could return (tests).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, el := range c.entries {
		if e := el.Value.(*cacheEntry); e.version == c.versions[e.measurement] {
			n++
		}
	}
	return n
}
