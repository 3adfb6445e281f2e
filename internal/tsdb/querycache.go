package tsdb

import (
	"strings"
	"sync"

	"pmove/internal/introspect"
)

// queryCache memoizes aggregate query results, as tables, keyed on the
// canonical Query.String() rendering. Correctness is version-based: a reader
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
// The cache keeps what is costly to recompute: a fill's worth is the
// cells its scan decoded per cell it retains, cells ÷ (rows·columns + 1).
// A fill of a new statement into a full cache evicts a stale entry, else
// the lowest priority, the least recently used among equals, or is
// refused when it ranks lowest itself. A hit restores its entry's
// priority to its worth, and every agingFills·cap fills halve them all,
// so a costly result nobody reads gives its slot up. LRU would evict
// each target of a dashboard larger than the cache before its next use.
//
// Hit/miss/evict/refused/invalidation counts are exported as
// pmove.self.query.cache.* when introspection is attached.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry // canonical statement → entry
	slots   []*cacheEntry          // the same entries, each at its idx
	// versions counts acknowledged invalidations per measurement in one
	// cell each, which its entries point at (cellLocked registers them).
	versions map[string]*uint64
	clock    uint64 // the last recency stamp handed out
	fills    int    // fills since priorities last halved

	hits, misses, evictions, refused, invalidations *introspect.Counter
	// Aggregate scan units by how they were answered (query.units_*),
	// and the cells they decoded (query.cells_decoded).
	unitsFooter, unitsDecoded, unitsHead, cellsDecoded *introspect.Counter
}

// cacheEntry holds a table nothing writes after put: get hands out a copy
// of res, whose columns every caller that hits it reads concurrently.
type cacheEntry struct {
	key      string
	idx      int     // its index in slots
	cur      *uint64 // its measurement's version cell
	version  uint64  // the measurement's version res was computed at
	res      table
	worth    float64 // decode work saved per retained cell
	priority float64 // worth, halved by each aging since the last hit or fill
	used     uint64  // recency stamp of the last hit or fill
}

// defaultQueryCacheCap bounds the cache; dashboards re-issue a small
// working set of canonical queries, so a few hundred entries suffice.
const defaultQueryCacheCap = 256

// agingFills·cap fills halve every priority: TinyLFU's reset period.
const agingFills = 10

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = defaultQueryCacheCap
	}
	return &queryCache{
		cap:      capacity,
		entries:  map[string]*cacheEntry{},
		versions: map[string]*uint64{},
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
	c.refused = m.Counter("query.cache.refused")
	c.invalidations = m.Counter("query.cache.invalidations")
	c.unitsFooter = m.Counter("query.units_footer")
	c.unitsDecoded = m.Counter("query.units_decoded")
	c.unitsHead = m.Counter("query.units_head")
	c.cellsDecoded = m.Counter("query.cells_decoded")
	c.mu.Unlock()
}

// countScan adds one aggregate scan's units and decoded cells:
// query.units_footer counts the units folded from their footers, with or
// without their percentile values decoded; query.units_decoded the sealed
// blocks and query.units_head the heads whose time column decoded.
func (c *queryCache) countScan(footer, decoded, head, cells int) {
	c.mu.Lock()
	c.unitsFooter.Add(uint64(footer))
	c.unitsDecoded.Add(uint64(decoded))
	c.unitsHead.Add(uint64(head))
	c.cellsDecoded.Add(uint64(cells))
	c.mu.Unlock()
}

// cellLocked returns the measurement's version cell, registering it at
// version 0 on first read or write, so that a later invalidation —
// invalidateAll's too, which no targeted write may precede (retention
// drops) — always outruns an in-flight fill. Callers hold c.mu.
func (c *queryCache) cellLocked(measurement string) *uint64 {
	cur := c.versions[measurement]
	if cur == nil {
		// A new key outlives the call: do not pin the text it was cut from.
		cur = new(uint64)
		c.versions[strings.Clone(measurement)] = cur
	}
	return cur
}

// version snapshots (registering if new) the measurement's version.
// Callers take it before scanning and hand it back to put.
func (c *queryCache) version(measurement string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *c.cellLocked(measurement)
}

// get returns the cached table for key, if any, for reading only.
func (c *queryCache) get(key string) (table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.version != *e.cur {
		c.misses.Inc()
		return table{}, false
	}
	c.clock++
	e.priority, e.used = e.worth, c.clock
	c.hits.Inc()
	return e.res, true
}

// put caches res, whose scan decoded cells cells, under key iff the
// measurement's version still equals the pre-scan snapshot — otherwise
// a write landed mid-scan and the fill is discarded. From here on res
// is read, never written.
func (c *queryCache) put(key, measurement string, version uint64, res table, cells int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cellLocked(measurement)
	if *cur != version {
		return
	}
	if c.fills++; c.fills >= agingFills*c.cap {
		c.fills = 0
		for _, e := range c.slots {
			e.priority /= 2
		}
	}
	c.clock++
	worth := float64(cells) / float64(len(res.Times)*len(res.Columns)+1)
	if e, ok := c.entries[key]; ok {
		e.version, e.res, e.worth, e.priority, e.used = version, res, worth, worth, c.clock
		return
	}
	// One walk drops the measurement's stale entries and ranks the rest:
	// a stale entry leaves first, ranked -1, then the lowest priority,
	// the least recently used among equals.
	var v *cacheEntry
	var vp float64
	for i := 0; i < len(c.slots); {
		e := c.slots[i]
		p := e.priority
		if e.version != *e.cur {
			if e.cur == cur {
				c.removeLocked(e) // slots[i] is now the last entry
				continue
			}
			p = -1 // it can never hit again
		}
		if v == nil || p < vp || (p == vp && e.used < v.used) {
			v, vp = e, p
		}
		i++
	}
	if len(c.slots) >= c.cap {
		if vp > worth {
			c.refused.Inc()
			return
		}
		c.removeLocked(v)
		c.evictions.Inc()
	}
	e := &cacheEntry{key: key, idx: len(c.slots), cur: cur, version: version, res: res,
		worth: worth, priority: worth, used: c.clock}
	c.entries[key] = e
	c.slots = append(c.slots, e)
}

// removeLocked swap-removes one entry. Callers hold c.mu.
func (c *queryCache) removeLocked(e *cacheEntry) {
	last := c.slots[len(c.slots)-1]
	c.slots[e.idx], last.idx = last, e.idx
	c.slots[len(c.slots)-1] = nil
	c.slots = c.slots[:len(c.slots)-1]
	delete(c.entries, e.key)
}

// invalidate bumps the measurement's version, which makes every cached
// result of it stale. Writers call it after the write is visible in memory
// and before acknowledging, so acknowledged data is never shadowed by
// a stale hit.
func (c *queryCache) invalidate(measurement string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*c.cellLocked(measurement)++
	c.invalidations.Inc()
}

// invalidateAll drops everything and bumps every registered version —
// the retention enforcer's path, where many measurements shrink at
// once.
func (c *queryCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cur := range c.versions {
		*cur++
	}
	c.invalidations.Inc()
	clear(c.entries)
	c.slots = nil
}

// len returns the count of entries a hit could return (tests).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.slots {
		if e.version == *e.cur {
			n++
		}
	}
	return n
}
