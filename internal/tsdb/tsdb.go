// Package tsdb is the time-series database substrate standing in for
// InfluxDB 1.8: measurements hold rows of (timestamp, tag set, field
// values), writes arrive through an API or the line protocol, queries use
// the SELECT subset P-MoVE generates (Listing 3), and retention policies
// bound storage as discussed in §V-B.
//
// Field names carry the instance domain, mirroring how PCP exports
// per-instance metrics to InfluxDB: a per-CPU metric has fields "_cpu0",
// "_cpu1", …, and a per-NUMA-node metric "_node0", "_node1" (see the
// paper's Listing 3 queries).
//
// The ingest path is built for parallel hardware: the measurement map is
// striped over lock-sharded partitions (concurrent writers to different
// measurements never serialize), batches commit to the write-ahead log
// as one group-committed record (one fsync per batch, atomic recovery),
// and the wire protocol ships a whole batch per round trip (WRITEB).
//
// Storage is columnar: a point decomposes into its series identity
// (measurement + canonical sorted tag set, interned once per shard) and
// per-field value columns. Each series keeps a mutable head of column
// arrays that seals into immutable Gorilla-compressed blocks of
// blockRows samples (block.go/column.go) — queries scan blocks, block
// footers answer whole-block aggregates without decompression, and
// retention drops whole sealed blocks in O(1).
package tsdb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pmove/internal/introspect"
	"pmove/internal/storage"
)

// Point is one row of a measurement.
type Point struct {
	Measurement string
	Tags        map[string]string
	Fields      map[string]float64
	// Time is nanoseconds since the epoch of the virtual clock.
	Time int64
}

// Validate checks the point is storable: a named measurement, at least
// one field, no empty tag/field keys (or empty tag values), and finite
// field values — NaN/±Inf round-trip through the line protocol but poison
// aggregations, so they are rejected with ErrNonFiniteField. (The
// columnar store additionally relies on this: NaN is the in-column
// "field absent" sentinel, which is unambiguous only because no stored
// value can be NaN.)
func (p *Point) Validate() error {
	if p.Measurement == "" {
		return fmt.Errorf("tsdb: point has no measurement")
	}
	if len(p.Fields) == 0 {
		return fmt.Errorf("tsdb: point in %q has no fields", p.Measurement)
	}
	for k, v := range p.Fields {
		if k == "" {
			return fmt.Errorf("%w: point in %q has an empty field name", ErrEmptyKey, p.Measurement)
		}
		if err := validateFinite(p.Measurement, k, v); err != nil {
			return err
		}
	}
	for k, v := range p.Tags {
		if k == "" || v == "" {
			return fmt.Errorf("%w: point in %q has an empty tag key or value", ErrEmptyKey, p.Measurement)
		}
	}
	return nil
}

// RetentionPolicy bounds how long data is kept (paper: "we rely on the
// retention policy of InfluxDB which describes for how long the DB keeps
// data").
type RetentionPolicy struct {
	Name     string
	Duration int64 // nanoseconds; 0 = keep forever
}

// NumShards is the lock-stripe width of the measurement map. Sixteen
// stripes keep independent telemetry shippers (one per instance domain
// or per target) off each other's mutexes while the per-read merge of
// the stats counters stays trivially cheap.
const NumShards = 16

// storageStats is the columnar engine's resident-footprint accounting,
// maintained with atomics because shards mutate it concurrently under
// their own stripe locks. headSlots counts head column cells (rows ×
// field columns, padding included), so headRows*8 + headSlots*8 +
// sealedBytes is the engine's resident data size in bytes.
type storageStats struct {
	headRows     atomic.Int64 // rows currently in mutable heads
	headSlots    atomic.Int64 // float64 cells across head columns
	sealedBytes  atomic.Int64 // compressed bytes across sealed blocks
	sealedRows   atomic.Int64 // rows across sealed blocks
	sealedValues atomic.Int64 // present field values across sealed blocks
	blocks       atomic.Int64 // sealed block count
}

// storageGauges are the introspection handles the stats publish into.
type storageGauges struct {
	bytes, blocks, ratio, head *introspect.Gauge
}

// shard is one lock stripe: a slice of the measurement map plus its
// share of the cumulative write counters, merged on read by Stats.
// The interner and the key/tagKeys scratch are guarded by mu.
type shard struct {
	mu           sync.RWMutex
	measurements map[string]*measurement
	points       uint64 // rows written into this stripe
	values       uint64 // field values written into this stripe

	intern  interner
	keyBuf  []byte
	tagKeys []string
	stats   *storageStats
}

// seriesFor resolves (or creates) the series for a tag set within a
// measurement. The lookup is allocation-free: the candidate key renders
// into shard scratch and probes the map via the string(bytes) idiom.
func (sh *shard) seriesFor(m *measurement, tags map[string]string) *memSeries {
	sh.keyBuf, sh.tagKeys = appendSeriesKey(sh.keyBuf[:0], m.name, tags, sh.tagKeys)
	if s, ok := m.byKey[string(sh.keyBuf)]; ok {
		return s
	}
	ctags := make(map[string]string, len(tags))
	for k, v := range tags {
		ctags[sh.intern.intern(k)] = sh.intern.intern(v)
	}
	s := &memSeries{
		seq:    m.nextSeq,
		key:    string(sh.keyBuf),
		tags:   ctags,
		fields: map[string]int{},
	}
	m.nextSeq++
	m.series = append(m.series, s)
	m.byKey[s.key] = s
	return s
}

// insertSeriesRow lands one row into a series' head, sealing it into a
// compressed block when it reaches blockRows, with footprint accounting.
func (sh *shard) insertSeriesRow(s *memSeries, t int64, fields map[string]float64) {
	st := sh.stats
	preSlots := int64(len(s.names)) * int64(len(s.head.times))
	s.insertRow(t, fields, sh.intern)
	st.headRows.Add(1)
	st.headSlots.Add(int64(len(s.names))*int64(len(s.head.times)) - preSlots)
	if len(s.head.times) >= blockRows {
		rows := int64(len(s.head.times))
		slots := int64(len(s.names)) * rows
		b, err := s.seal()
		if err != nil {
			// Can only mean an engine bug; keep the rows in the head (the
			// next insert retries) rather than lose data.
			return
		}
		st.headRows.Add(-rows)
		st.headSlots.Add(-slots)
		st.sealedBytes.Add(int64(len(b.blob)))
		st.sealedRows.Add(int64(b.rows))
		st.sealedValues.Add(int64(b.values))
		st.blocks.Add(1)
	}
}

// insertRun lands every point of ps whose shard index (precomputed in
// idx) equals self, under ONE lock acquisition — the atomic-per-shard
// leg of a batch write. Consecutive points of the same measurement and
// tag set skip the map and series-key lookups, and the stats counters
// are bumped once per run.
func (sh *shard) insertRun(ps []Point, idx []uint32, self uint32) {
	sh.mu.Lock()
	var lastM *measurement
	var rows, vals uint64
	for i := range ps {
		if idx[i] != self {
			continue
		}
		p := &ps[i]
		m := lastM
		if m == nil || p.Measurement != m.name {
			m = sh.measurements[p.Measurement]
			if m == nil {
				name := sh.intern.intern(p.Measurement)
				m = &measurement{name: name, byKey: map[string]*memSeries{}}
				sh.measurements[name] = m
			}
			lastM = m
		}
		s := sh.seriesFor(m, p.Tags)
		sh.insertSeriesRow(s, p.Time, p.Fields)
		rows++
		vals += uint64(len(p.Fields))
	}
	sh.points += rows
	sh.values += vals
	sh.mu.Unlock()
}

// DB is a time-series database: in-memory by default (New), optionally
// backed by a write-ahead log + snapshot data directory (Open) so
// acknowledged writes survive a crash.
type DB struct {
	// mu is the structural lock ordering writers against the durability
	// lifecycle: every mutator holds it SHARED (writers to different
	// shards proceed in parallel, serialized only on their stripe),
	// while Compact/Close/Crash hold it EXCLUSIVELY so the store
	// pointer and the shard contents are stable while a snapshot
	// renders or the store detaches. It also guards retention/store/
	// closed. Lock order: db.mu before any shard.mu.
	mu        sync.RWMutex
	retention RetentionPolicy
	// store is the durability layer; nil for the zero-config in-memory
	// mode every embedded use defaults to. closed marks a durable DB
	// whose directory was released (Close/Crash): still readable, but
	// writes would be silently volatile, so they are refused.
	store  *storage.Store
	closed bool

	shards [NumShards]shard

	// stats is the storage-footprint accounting; gauges (when
	// introspection is attached) receive a publish after every mutation.
	stats  storageStats
	gauges atomic.Pointer[storageGauges]

	// qcache memoizes aggregate query results; writers invalidate it
	// per measurement before acknowledging (see querycache.go).
	qcache *queryCache
}

// New creates an empty database with an infinite retention policy.
func New() *DB {
	db := &DB{retention: RetentionPolicy{Name: "autogen"}, qcache: newQueryCache(0)}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.measurements = make(map[string]*measurement)
		sh.intern = interner{}
		sh.stats = &db.stats
	}
	return db
}

// SetIntrospection attaches the self-observability plane: query-cache
// hit/miss/evict/invalidation counters land in the introspector's
// registry as query.cache.*, and the columnar engine's footprint gauges
// as storage.bytes / storage.blocks / storage.compression.ratio /
// storage.head.samples (all exported with the pmove.self. prefix).
func (db *DB) SetIntrospection(in *introspect.Introspector) {
	db.qcache.setIntrospection(in)
	reg := in.Metrics()
	db.gauges.Store(&storageGauges{
		bytes:  reg.Gauge("storage.bytes"),
		blocks: reg.Gauge("storage.blocks"),
		ratio:  reg.Gauge("storage.compression.ratio"),
		head:   reg.Gauge("storage.head.samples"),
	})
	db.publishStorageGauges()
}

// publishStorageGauges pushes the current footprint accounting into the
// introspection gauges: resident bytes (head columns at 8 bytes/cell +
// compressed blocks), sealed block count, sealed compression ratio
// (uncompressed row bytes ÷ compressed bytes; 0 before the first seal),
// and head sample count. No-op until SetIntrospection attaches gauges.
func (db *DB) publishStorageGauges() {
	g := db.gauges.Load()
	if g == nil {
		return
	}
	headRows := db.stats.headRows.Load()
	headSlots := db.stats.headSlots.Load()
	sealedBytes := db.stats.sealedBytes.Load()
	g.bytes.Set(float64(headRows*8 + headSlots*8 + sealedBytes))
	g.blocks.Set(float64(db.stats.blocks.Load()))
	ratio := 0.0
	if sealedBytes > 0 {
		raw := db.stats.sealedRows.Load()*8 + db.stats.sealedValues.Load()*8
		ratio = float64(raw) / float64(sealedBytes)
	}
	g.ratio.Set(ratio)
	g.head.Set(float64(headRows))
}

// shardIndex stripes a measurement name with FNV-1a.
func shardIndex(measurement string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(measurement); i++ {
		h = (h ^ uint32(measurement[i])) * 16777619
	}
	return h % NumShards
}

// shardFor returns the stripe owning a measurement.
func (db *DB) shardFor(measurement string) *shard {
	return &db.shards[shardIndex(measurement)]
}

// SetRetention installs a retention policy; EnforceRetention applies it.
func (db *DB) SetRetention(rp RetentionPolicy) {
	db.mu.Lock()
	db.retention = rp
	db.mu.Unlock()
}

// Retention returns the current policy.
func (db *DB) Retention() RetentionPolicy {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.retention
}

// BatchError reports a rejected batch write: the offending point's
// index and how many points of the batch were applied. The engine
// validates the whole batch before touching the log or memory, so
// Applied is always 0 — a batch lands atomically or not at all — but
// the field is part of the contract so callers never have to assume it.
type BatchError struct {
	// Index is the position of the offending point in the batch.
	Index int
	// Applied is how many points of the batch landed before the
	// failure (0 under the validate-first engine).
	Applied int
	// Err is the underlying rejection.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("tsdb: batch point %d (%d applied): %v", e.Index, e.Applied, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// WriteBatchContext inserts a batch atomically: every point is
// validated up front (a rejection returns a *BatchError with Applied ==
// 0 and no state change), a durable DB commits the whole batch as ONE
// group-committed WAL record (a single fsync amortized over the batch;
// recovery replays the batch frame entirely or — when the crash tore
// it — not at all), and the in-memory inserts take each shard lock once
// per batch rather than once per point. Points of different
// measurements may interleave with concurrent writers, but a batch is
// atomic per shard and all-or-nothing against crashes.
func (db *DB) WriteBatchContext(ctx context.Context, ps []Point) error {
	if len(ps) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("tsdb: batch: %w", err)
	}
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return fmt.Errorf("tsdb: write to closed durable DB")
	}
	if db.store != nil {
		if err := db.appendBatchLocked(ps); err != nil {
			return err
		}
	}
	db.insertBatch(ps)
	// Invalidate every written measurement after the batch is visible
	// and before acknowledging (deduplicated — batches repeat names).
	seen := make(map[string]struct{}, 4)
	for i := range ps {
		if _, ok := seen[ps[i].Measurement]; ok {
			continue
		}
		seen[ps[i].Measurement] = struct{}{}
		db.qcache.invalidate(ps[i].Measurement)
	}
	db.publishStorageGauges()
	return nil
}

// insertBatch lands validated points in memory: each point's stripe is
// precomputed, then the batch lands one shard at a time — one lock
// acquisition per touched stripe, input order preserved within each.
// Live writes and WAL replay share it.
func (db *DB) insertBatch(ps []Point) {
	idx := make([]uint32, len(ps))
	var touched [NumShards]bool
	for i := range ps {
		idx[i] = shardIndex(ps[i].Measurement)
		touched[idx[i]] = true
	}
	for s := uint32(0); s < NumShards; s++ {
		if touched[s] {
			db.shards[s].insertRun(ps, idx, s)
		}
	}
}

// appendBatchLocked group-commits a validated batch to the WAL as one
// record (plain line body for a single point, batch envelope
// otherwise), encoding every line straight into the record body.
// Callers hold db.mu shared with store non-nil.
func (db *DB) appendBatchLocked(ps []Point) error {
	buf := make([]byte, 0, 16+linesSizeHint(ps)) // 16: the envelope header
	if len(ps) == 1 {
		buf = appendLine(buf, &ps[0])
	} else {
		buf = storage.AppendBatchHeader(buf, len(ps))
		for i := range ps {
			start := len(buf)
			buf = storage.AppendBatchItem(appendLine(buf, &ps[i]), start)
		}
	}
	if _, err := db.store.Append(buf); err != nil {
		return &BatchError{Index: 0, Err: fmt.Errorf("tsdb: wal append: %w", err)}
	}
	return nil
}

// Measurements lists all measurement names, sorted.
func (db *DB) Measurements() []string {
	var out []string
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for m := range sh.measurements {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Stats reports cumulative write counts: rows and individual field
// values, merged across the shard stripes on read.
func (db *DB) Stats() (points, values uint64) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		points += sh.points
		values += sh.values
		sh.mu.RUnlock()
	}
	return points, values
}

// CountValues returns the number of stored field values in a measurement,
// and how many of them are zero — the accounting Table III reports
// ("Inserted" and "Zeros" columns). Sealed blocks answer from their
// footers without decompression; only the mutable heads are scanned.
func (db *DB) CountValues(measurement string) (total, zeros uint64) {
	sh := db.shardFor(measurement)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.measurements[measurement]
	if m == nil {
		return 0, 0
	}
	for _, s := range m.series {
		for _, b := range s.blocks {
			for i := range b.fields {
				total += b.fields[i].count
				zeros += b.fields[i].zeros
			}
		}
		for _, col := range s.head.cols {
			for _, v := range col {
				if v == v { // non-NaN: a present value
					total++
					if v == 0 {
						zeros++
					}
				}
			}
		}
	}
	return total, zeros
}

// EnforceRetention drops points older than now-Duration. Returns the
// number of points dropped. Sealed blocks wholly before the cutoff are
// dropped in O(1) each — no decompression, just unlinking — and at most
// one straddling block per series is rewritten.
func (db *DB) EnforceRetention(now int64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.retention.Duration <= 0 {
		return 0
	}
	cutoff := now - db.retention.Duration
	dropped := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for name, m := range sh.measurements {
			kept := m.series[:0]
			for _, s := range m.series {
				dropped += sh.retainSeries(s, cutoff)
				if len(s.blocks) == 0 && len(s.head.times) == 0 {
					delete(m.byKey, s.key)
					continue
				}
				kept = append(kept, s)
			}
			for j := len(kept); j < len(m.series); j++ {
				m.series[j] = nil
			}
			m.series = kept
			if len(m.series) == 0 {
				delete(sh.measurements, name)
			}
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		db.qcache.invalidateAll()
	}
	db.publishStorageGauges()
	return dropped
}

// retainSeries applies a retention cutoff to one series: whole sealed
// blocks before the cutoff unlink in O(1), the (at most one) straddling
// block is rewritten, and the head drops its expired prefix. Returns
// rows dropped. Callers hold sh.mu.
func (sh *shard) retainSeries(s *memSeries, cutoff int64) int {
	st := sh.stats
	dropped := 0
	kept := s.blocks[:0]
	for _, b := range s.blocks {
		switch {
		case b.maxT < cutoff: // wholly expired: O(1) drop
			dropped += b.rows
			st.sealedBytes.Add(-int64(len(b.blob)))
			st.sealedRows.Add(-int64(b.rows))
			st.sealedValues.Add(-int64(b.values))
			st.blocks.Add(-1)
		case b.minT >= cutoff: // wholly live
			kept = append(kept, b)
		default: // straddles: rewrite the surviving suffix
			nb, removed, err := shrinkBlock(b, cutoff)
			if err != nil || removed == 0 {
				// Decode failure would mean an engine bug; keep the data.
				kept = append(kept, b)
				continue
			}
			dropped += removed
			st.sealedBytes.Add(int64(len(nb.blob)) - int64(len(b.blob)))
			st.sealedRows.Add(int64(nb.rows) - int64(b.rows))
			st.sealedValues.Add(int64(nb.values) - int64(b.values))
			kept = append(kept, nb)
		}
	}
	for i := len(kept); i < len(s.blocks); i++ {
		s.blocks[i] = nil
	}
	s.blocks = kept
	h := &s.head
	if n := len(h.times); n > 0 && h.times[0] < cutoff {
		i := sort.Search(n, func(i int) bool { return h.times[i] >= cutoff })
		dropped += i
		copy(h.times, h.times[i:])
		h.times = h.times[:n-i]
		for ci := range h.cols {
			copy(h.cols[ci], h.cols[ci][i:])
			h.cols[ci] = h.cols[ci][:n-i]
		}
		st.headRows.Add(-int64(i))
		st.headSlots.Add(-int64(i) * int64(len(s.names)))
	}
	return dropped
}

// shrinkBlock re-encodes the rows of b at or after cutoff into a new
// block, returning it and the number of rows removed. The caller has
// established minT < cutoff <= maxT, so the suffix is never empty.
func shrinkBlock(b *block, cutoff int64) (*block, int, error) {
	times, err := b.decodeTimes(nil)
	if err != nil {
		return nil, 0, err
	}
	idx := sort.Search(len(times), func(i int) bool { return times[i] >= cutoff })
	if idx == 0 {
		return b, 0, nil
	}
	names := make([]string, len(b.fields))
	cols := make([][]float64, len(b.fields))
	for i := range b.fields {
		names[i] = b.fields[i].name
		col, err := b.decodeField(i, nil)
		if err != nil {
			return nil, 0, err
		}
		cols[i] = col[idx:]
	}
	nb, err := encodeBlock(times[idx:], names, cols)
	if err != nil {
		return nil, 0, err
	}
	return nb, idx, nil
}

// Row is one result row of a query.
type Row struct {
	Time   int64
	Values map[string]float64
}

// Result is a query result: the selected field columns and the rows.
type Result struct {
	Measurement string
	Columns     []string
	Rows        []Row
}

// QueryRequest is the request-struct form of a query, mirroring the
// daemon's context-first convention: either a pre-parsed Query or a
// SELECT statement to parse (Query wins when both are set).
type QueryRequest struct {
	// Statement is a SELECT statement, parsed when Query is nil.
	Statement string
	// Query is a pre-parsed query.
	Query *Query
	// Workers bounds the parallel scan pool of an aggregate query;
	// <= 0 selects min(GOMAXPROCS, NumShards). 1 forces the sequential
	// single-goroutine scan.
	Workers int
	// SkipCache bypasses the query-result cache (both lookup and
	// fill) — benchmarking and freshness-critical reads.
	SkipCache bool
}

// ExecuteContext runs one query from its request form. Only the
// stripe owning the queried measurement is locked, so reads never
// block writers of other measurements. Aggregate queries run on the
// parallel block-aware engine (aggexec.go) behind the invalidation-
// correct result cache (querycache.go); raw SELECTs merge the sorted
// runs (sealed blocks + heads) of every matching series.
func (db *DB) ExecuteContext(ctx context.Context, req QueryRequest) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tsdb: query: %w", err)
	}
	q := req.Query
	if q == nil {
		var err error
		q, err = ParseQuery(req.Statement)
		if err != nil {
			return nil, err
		}
	}
	// Pre-parsed queries arrive unvalidated; hold them to the same
	// shape rules ParseQuery enforces.
	if len(q.Aggregates) > 0 && len(q.Fields) > 0 {
		return nil, fmt.Errorf("tsdb: cannot mix raw fields and aggregates in one SELECT")
	}
	if q.GroupBy > 0 && len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("tsdb: GROUP BY time requires aggregate fields")
	}
	if len(q.Aggregates) > 0 {
		key := q.String()
		if !req.SkipCache {
			if res, ok := db.qcache.get(key); ok {
				return res, nil
			}
		}
		ver := db.qcache.version(q.Measurement)
		res, err := db.execAggregate(ctx, q, req.Workers)
		if err != nil {
			return nil, err
		}
		if !req.SkipCache {
			// The cache keeps its own copy; the caller's result stays
			// private either way.
			db.qcache.put(key, q.Measurement, ver, copyResult(res))
		}
		return res, nil
	}
	return db.execRaw(q)
}

// rawRun is one time-sorted source of rows for the raw SELECT merge: a
// decoded sealed block or a series head, restricted to the query's time
// bounds and to the selected columns it actually carries.
type rawRun struct {
	times    []int64
	names    []string
	cols     [][]float64
	pos, end int
}

// timeBounds binary-searches the [lo, hi) index span of times matching
// the query's From/To bounds (0 = unbounded, as everywhere else).
func timeBounds(times []int64, from, to int64) (lo, hi int) {
	lo, hi = 0, len(times)
	if from != 0 {
		lo = sort.Search(len(times), func(i int) bool { return times[i] >= from })
	}
	if to != 0 {
		hi = sort.Search(len(times), func(i int) bool { return times[i] > to })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// blockRawRun decodes the selected columns of a sealed block into a
// merge run. A block carrying none of the selected fields yields an
// empty run — none of its rows could contribute a row.
func blockRawRun(b *block, q *Query, selectAll bool) (rawRun, error) {
	var run rawRun
	if selectAll {
		for fi := range b.fields {
			col, err := b.decodeField(fi, nil)
			if err != nil {
				return run, err
			}
			run.names = append(run.names, b.fields[fi].name)
			run.cols = append(run.cols, col)
		}
	} else {
		for _, f := range q.Fields {
			fi := b.fieldIndex(f)
			if fi < 0 {
				continue
			}
			col, err := b.decodeField(fi, nil)
			if err != nil {
				return run, err
			}
			run.names = append(run.names, f)
			run.cols = append(run.cols, col)
		}
		if len(run.names) == 0 {
			return run, nil
		}
	}
	times, err := b.decodeTimes(nil)
	if err != nil {
		return run, err
	}
	run.times = times
	run.pos, run.end = timeBounds(times, q.From, q.To)
	return run, nil
}

// headRawRun builds a merge run over a series head by aliasing its
// column arrays — safe for the duration of the shard read lock.
func headRawRun(s *memSeries, q *Query, selectAll bool) rawRun {
	var run rawRun
	if selectAll {
		run.names = s.names
		run.cols = s.head.cols
	} else {
		for _, f := range q.Fields {
			if ci, ok := s.fields[f]; ok {
				run.names = append(run.names, f)
				run.cols = append(run.cols, s.head.cols[ci])
			}
		}
		if len(run.names) == 0 {
			return run
		}
	}
	run.times = s.head.times
	run.pos, run.end = timeBounds(run.times, q.From, q.To)
	return run
}

// appendRawRow renders the run's current row (skipping it when no
// selected field is present) and advances the cursor.
func appendRawRow(res *Result, r *rawRun) {
	t := r.times[r.pos]
	vals := make(map[string]float64, len(r.names))
	for ci, name := range r.names {
		if v := r.cols[ci][r.pos]; v == v {
			vals[name] = v
		}
	}
	r.pos++
	if len(vals) == 0 {
		return
	}
	res.Rows = append(res.Rows, Row{Time: t, Values: vals})
}

// runHeapDown restores the min-heap property from index i. The heap
// orders run indices by (current time, run index), so equal timestamps
// resolve deterministically: series creation order, then block order,
// then head — which within one series is ingest order.
func runHeapDown(h []int, i int, runs []rawRun) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && runLess(runs, h[l], h[small]) {
			small = l
		}
		if r < len(h) && runLess(runs, h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

func runLess(runs []rawRun, a, b int) bool {
	ta, tb := runs[a].times[runs[a].pos], runs[b].times[runs[b].pos]
	return ta < tb || (ta == tb && a < b)
}

// execRaw materializes a raw SELECT: per matching series, the
// overlapping sealed blocks decode into sorted runs and the head joins
// as a final run; a k-way merge emits rows in (time, series, ingest)
// order — the same order the row store produced.
func (db *DB) execRaw(q *Query) (*Result, error) {
	sh := db.shardFor(q.Measurement)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	res := &Result{Measurement: q.Measurement, Columns: q.Fields}
	m := sh.measurements[q.Measurement]
	if m == nil {
		return res, nil
	}
	selectAll := len(q.Fields) == 1 && q.Fields[0] == "*"
	var runs []rawRun
	for _, s := range m.series {
		if !s.matchTags(q.TagFilter) {
			continue
		}
		for _, b := range s.blocks {
			if (q.From != 0 && b.maxT < q.From) || (q.To != 0 && b.minT > q.To) {
				continue
			}
			run, err := blockRawRun(b, q, selectAll)
			if err != nil {
				return nil, err
			}
			if run.end > run.pos {
				runs = append(runs, run)
			}
		}
		if len(s.head.times) > 0 {
			if run := headRawRun(s, q, selectAll); run.end > run.pos {
				runs = append(runs, run)
			}
		}
	}
	total := 0
	for i := range runs {
		total += runs[i].end - runs[i].pos
	}
	if total > 0 {
		res.Rows = make([]Row, 0, total)
	}
	switch len(runs) {
	case 0:
	case 1:
		r := &runs[0]
		for r.pos < r.end {
			appendRawRow(res, r)
		}
	default:
		h := make([]int, len(runs))
		for i := range runs {
			h[i] = i
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			runHeapDown(h, i, runs)
		}
		for len(h) > 0 {
			r := &runs[h[0]]
			appendRawRow(res, r)
			if r.pos >= r.end {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 0 {
				runHeapDown(h, 0, runs)
			}
		}
	}
	if selectAll {
		// Stabilise the column list.
		cols := map[string]bool{}
		for _, r := range res.Rows {
			for f := range r.Values {
				cols[f] = true
			}
		}
		// A fresh slice: Columns aliased q.Fields until here, and the
		// caller's query must come back unchanged.
		res.Columns = make([]string, 0, len(cols))
		for f := range cols {
			res.Columns = append(res.Columns, f)
		}
		sort.Strings(res.Columns)
	}
	return res, nil
}

// MeasurementName converts a PCP metric name to the measurement naming
// InfluxDB exports use: dots become underscores, e.g.
// "kernel.percpu.cpu.idle" -> "kernel_percpu_cpu_idle" and
// "perfevent.hwcounters.FP_ARITH:SCALAR_DOUBLE" ->
// "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE" (Listing 1).
func MeasurementName(metric string) string {
	return measurementNameReplacer.Replace(metric)
}

var measurementNameReplacer = strings.NewReplacer(".", "_", ":", "_", "-", "_")
