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
// The ingest path moves whole batches: a batch commits to the
// write-ahead log as one group-committed record (one fsync per batch,
// atomic recovery), lands in memory under one lock (readers see all of
// it or none), and crosses the wire in one round trip (WRITEB).
//
// Storage is columnar: a point decomposes into its series identity
// (measurement + canonical sorted tag set, interned once) and
// per-field value columns. Each series compresses new rows into an open
// block that seals into an immutable Gorilla-compressed block of
// blockRows samples (block.go/column.go) — queries scan blocks, footers
// answer whole-block aggregates without decompression, and retention
// drops whole sealed blocks in O(1).
package tsdb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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
		return errNoMeasurement
	}
	if len(p.Fields) == 0 {
		return fmt.Errorf("tsdb: point in %q has no fields", p.Measurement)
	}
	for k, v := range p.Fields {
		if err := validField(p.Measurement, k, v); err != nil {
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

// storageStats is the columnar engine's resident-footprint accounting,
// guarded by DB.data: headBytes + sealedBytes is the engine's resident
// data size in bytes.
type storageStats struct {
	headRows     int64 // rows currently in heads
	headBytes    int64 // open block bytes across heads
	sealedBytes  int64 // compressed bytes across sealed blocks
	sealedRows   int64 // rows across sealed blocks
	sealedValues int64 // present field values across sealed blocks
	blocks       int64 // sealed block count
}

// storageGauges are the introspection handles the stats publish into.
type storageGauges struct {
	bytes, blocks, ratio, head *introspect.Gauge
	// Rows of received wire frames by how they reach a WAL body: as the
	// line the client sent, or encoded again from the scanned row.
	verbatim, reencoded *introspect.Counter
}

// DB is a time-series database: in-memory by default (New), optionally
// backed by a write-ahead log + snapshot data directory (Open) so
// acknowledged writes survive a crash.
//
// Lock order: mu, then data.
type DB struct {
	// mu is the barrier between mutations and Compact/Close/Crash. Every
	// mutator holds it SHARED for its whole operation — so a writer's WAL
	// append and fsync run outside the exclusive section of data,
	// overlapping another writer's insert — while Compact/Close/Crash
	// hold it EXCLUSIVELY, so a snapshot renders a quiescent series map
	// and no mutation straddles the store's close.
	mu sync.RWMutex
	// store is the durability layer, set once by Open; nil for the
	// zero-config in-memory mode every embedded use defaults to. Once
	// closed or crashed it refuses appends (storage.ErrClosed): the DB
	// stays readable, but a write is refused rather than silently
	// volatile.
	store *storage.Store

	// data guards the series map and everything up to gauges: a batch
	// lands under one exclusive hold, so readers see all of it or none.
	data         sync.RWMutex
	retention    RetentionPolicy
	measurements map[string]*measurement
	points       uint64 // rows written (cumulative)
	values       uint64 // field values written (cumulative)
	intern       interner
	keyBuf       []byte // seriesFor's key scratch
	stats        storageStats

	// gauges (when introspection is attached) receive a publish of stats
	// after every mutation.
	gauges atomic.Pointer[storageGauges]

	// qcache memoizes aggregate query results; writers invalidate it
	// per measurement before acknowledging (see querycache.go).
	qcache *queryCache
}

// New creates an empty database with an infinite retention policy.
func New() *DB {
	return &DB{
		retention:    RetentionPolicy{Name: "autogen"},
		measurements: make(map[string]*measurement),
		intern:       interner{},
		qcache:       newQueryCache(0),
	}
}

// SetIntrospection attaches the self-observability plane: the query
// cache's hit/miss/evict/refused/invalidation counters and the scan's
// unit and cell tallies as query.cache.*, query.units_* and
// query.cells_decoded, the engine's footprints as storage.bytes /
// storage.blocks / storage.compression.ratio / storage.head.samples, and
// received wire frames' rows as ingest.rows_verbatim /
// ingest.rows_reencoded (all in its registry, pmove.self.-prefixed).
func (db *DB) SetIntrospection(in *introspect.Introspector) {
	db.qcache.setIntrospection(in)
	reg := in.Metrics()
	db.gauges.Store(&storageGauges{
		bytes:  reg.Gauge("storage.bytes"),
		blocks: reg.Gauge("storage.blocks"),
		ratio:  reg.Gauge("storage.compression.ratio"),
		head:   reg.Gauge("storage.head.samples"),

		verbatim:  reg.Counter("ingest.rows_verbatim"),
		reencoded: reg.Counter("ingest.rows_reencoded"),
	})
	db.data.RLock()
	db.publishStorageGauges()
	db.data.RUnlock()
}

// publishStorageGauges pushes the current footprint accounting into the
// introspection gauges: resident bytes (heads' and sealed blocks'
// compressed bytes), sealed block count, sealed compression ratio
// (uncompressed row bytes ÷ compressed bytes; 0 before the first seal),
// and head sample count. No-op until SetIntrospection attaches gauges.
// Callers hold db.data.
func (db *DB) publishStorageGauges() {
	g := db.gauges.Load()
	if g == nil {
		return
	}
	st := &db.stats
	g.bytes.Set(float64(st.headBytes + st.sealedBytes))
	g.blocks.Set(float64(st.blocks))
	ratio := 0.0
	if st.sealedBytes > 0 {
		ratio = float64(st.sealedRows*8+st.sealedValues*8) / float64(st.sealedBytes)
	}
	g.ratio.Set(ratio)
	g.head.Set(float64(st.headRows))
}

// measurementFor resolves (or creates) a measurement. Callers hold
// db.data exclusively.
func (db *DB) measurementFor(name string) *measurement {
	m := db.measurements[name]
	if m == nil {
		name = db.intern.intern(name)
		m = &measurement{name: name, byKey: map[string]*memSeries{}}
		db.measurements[name] = m
	}
	return m
}

// seriesFor resolves (or creates) the series for a tag set — sorted by
// key — within a measurement. The lookup is allocation-free: the
// candidate key renders into DB scratch and probes the map via the
// string(bytes) idiom.
func (db *DB) seriesFor(m *measurement, tags []rowKV) *memSeries {
	db.keyBuf = appendSeriesKey(db.keyBuf[:0], m.name, tags)
	if s, ok := m.byKey[string(db.keyBuf)]; ok {
		return s
	}
	ctags := make(map[string]string, len(tags))
	for _, t := range tags {
		ctags[db.intern.intern(t.key)] = db.intern.intern(t.str)
	}
	s := &memSeries{
		key:    string(db.keyBuf),
		tags:   ctags,
		fields: map[string]int{},
	}
	m.series = append(m.series, s)
	m.byKey[s.key] = s
	return s
}

// insertSeriesRow lands one row into a series' head, sealing it into a
// compressed block when it reaches blockRows, with footprint accounting.
func (db *DB) insertSeriesRow(s *memSeries, t int64, fields []rowKV) {
	st := &db.stats
	pre := s.open.bytes
	s.insertRow(t, fields, db.intern)
	st.headRows++
	st.headBytes += int64(s.open.bytes - pre)
	if rows := s.open.rows; rows >= blockRows {
		pre = s.open.bytes
		b, err := s.seal()
		if err != nil {
			// Can only mean an engine bug; keep the rows in the head (the
			// next insert retries) rather than lose data.
			return
		}
		st.headRows -= int64(rows)
		st.headBytes -= int64(pre)
		st.sealedBytes += int64(len(b.blob))
		st.sealedRows += int64(b.rows)
		st.sealedValues += int64(b.values)
		st.blocks++
	}
}

// SetRetention installs a retention policy; EnforceRetention applies it.
func (db *DB) SetRetention(rp RetentionPolicy) {
	db.data.Lock()
	db.retention = rp
	db.data.Unlock()
}

// BatchError reports a rejected batch write: the offending point's
// index. The engine validates the whole batch before touching the log
// or memory, so a refused batch lands nothing.
type BatchError struct {
	// Index is the position of the offending point in the batch.
	Index int
	// Err is the underlying rejection.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("tsdb: batch point %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// BatchWriter is the unified batched write surface: the embedded *DB
// and the wire *Client both provide it, so code built
// against it (the telemetry pipeline, the self-metrics and trace
// exporters) runs unchanged embedded or remote.
type BatchWriter interface {
	WriteBatchContext(ctx context.Context, ps []Point) error
}

// WriteBatchContext inserts a batch atomically: every point is
// validated up front (a rejection returns a *BatchError and changes no
// state), a durable DB commits the whole batch as ONE
// group-committed WAL record (one fdatasync into the zero extent under
// fsync=always, amortized over the batch; recovery replays the frame
// entirely or — when the crash tore it — not at all), and the in-memory
// insert is one exclusive hold of the data lock: Stats and queries
// observe the whole batch or none of it, all-or-nothing against crashes.
func (db *DB) WriteBatchContext(ctx context.Context, ps []Point) error {
	if len(ps) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("tsdb: batch: %w", err)
	}
	// Each point becomes a row once, before any lock, as a frame's lines do.
	rb := getRowBuf()
	var prev []rowKV // the key order the next point is read in
	for i := range ps {
		r, kvs, err := pointRow(&ps[i], rb.kvs, prev)
		if err != nil {
			return &BatchError{Index: i, Err: err} // rb is not kept
		}
		rb.rows, rb.kvs, prev = append(rb.rows, r), kvs, r.fields
	}
	err := db.commit(rb)
	putRowBuf(rb)
	return err
}

// writeFrame is WriteBatchContext for the rows the wire server scanned,
// and so validated, from a received frame: a durable store's WAL record
// takes the lines as they came, where they are canonical.
func (db *DB) writeFrame(rb *rowBuf) error {
	if g := db.gauges.Load(); g != nil {
		g.verbatim.Add(uint64(rb.verbatim))
		g.reencoded.Add(uint64(len(rb.rows) - rb.verbatim))
	}
	return db.commit(rb)
}

// walRecord appends the WAL record of rows to rec — a plain line body for
// one, the batch envelope otherwise — each line straight into it.
func walRecord(rec []byte, rows []row) []byte {
	if len(rows) > 1 {
		rec = storage.AppendBatchHeader(rec, len(rows))
	}
	for i := range rows {
		start := len(rec)
		rec = appendRow(rec, &rows[i])
		if len(rows) > 1 {
			rec = storage.AppendBatchItem(rec, start)
		}
	}
	return rec
}

// commit lands a batch of validated rows: their record in the WAL first
// (printed before any lock is taken), then the rows in memory, then every
// written measurement's cached results are invalidated — after the batch
// is visible and before it is acknowledged.
func (db *DB) commit(rb *rowBuf) error {
	if db.Durable() {
		rb.rec = walRecord(rb.rec[:0], rb.rows)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store != nil {
		if _, err := db.store.Append(rb.rec); err != nil {
			return &BatchError{Index: 0, Err: fmt.Errorf("tsdb: wal append: %w", err)}
		}
	}
	db.insertBatch(rb)
	for _, name := range rb.written {
		db.qcache.invalidate(name)
	}
	return nil
}

// insertBatch lands rb's validated rows in memory under one hold of the
// data lock, in time order, stable — sorted before the lock through
// rb.order — so only a row older than an earlier batch's is late; new
// series still come to be in arrival order, the scan's order of equal
// times across series. rb.written keeps the measurements written. Live
// writes, wire frames and WAL replay share it.
func (db *DB) insertBatch(rb *rowBuf) {
	rows, order := rb.rows, rb.order[:0]
	if !slices.IsSortedFunc(rows, func(a, b row) int { return cmp.Compare(a.time, b.time) }) {
		for i := range rows {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rows[a].time, rows[b].time) })
	}
	rb.order, rb.written = order, rb.written[:0]
	db.data.Lock()
	defer db.data.Unlock()
	for i := range len(order) {
		if r := &rows[i]; i == 0 || r.meas != rows[i-1].meas || !slices.Equal(r.tags, rows[i-1].tags) {
			db.seriesFor(db.measurementFor(r.meas), r.tags)
		}
	}
	var m *measurement
	for i := range rows {
		r := &rows[i]
		if len(order) > 0 {
			r = &rows[order[i]]
		}
		if m == nil || r.meas != m.name {
			m = db.measurementFor(r.meas)
			if !slices.Contains(rb.written, m.name) {
				rb.written = append(rb.written, m.name)
			}
		}
		db.insertSeriesRow(db.seriesFor(m, r.tags), r.time, r.fields)
		db.values += uint64(len(r.fields))
	}
	db.points += uint64(len(rows))
	db.publishStorageGauges()
}

// Measurements lists all measurement names, sorted.
func (db *DB) Measurements() []string {
	db.data.RLock()
	out := make([]string, 0, len(db.measurements))
	for m := range db.measurements {
		out = append(out, m)
	}
	db.data.RUnlock()
	sort.Strings(out)
	return out
}

// Stats reports cumulative write counts: rows and individual field
// values. A concurrent batch is counted whole or not at all.
func (db *DB) Stats() (points, values uint64) {
	db.data.RLock()
	defer db.data.RUnlock()
	return db.points, db.values
}

// CountValues returns the number of stored field values in a measurement,
// and how many of them are zero — the accounting Table III reports
// ("Inserted" and "Zeros" columns). Units answer from their footers,
// which do not depend on row order, without decompression.
func (db *DB) CountValues(measurement string) (total, zeros uint64) {
	db.data.RLock()
	defer db.data.RUnlock()
	for _, u := range db.units(&Query{Measurement: measurement}) {
		for i := range u.b.fields {
			total += u.b.fields[i].count
			zeros += u.b.fields[i].zeros
		}
	}
	return total, zeros
}

// Row is one result row of a query.
type Row struct {
	Time   int64
	Values map[string]float64
}

// Result is a query result: the selected field columns and the rows.
// A Result belongs to its caller, who may keep or write it: each call
// builds its own, a cached aggregate's too.
type Result struct {
	Measurement string
	Columns     []string
	Rows        []Row
}

// table is a query result as the engine makes it, the cache keeps it and
// the server encodes it: one time column and one value column per name
// in Columns. A cell its row lacks is absent, math.NaN()'s exact bits;
// any other value is present, a NaN that an aggregate computes too (a
// sum of +Inf and -Inf partials). Times is nil when there are no rows.
type table struct {
	Measurement string
	Columns     []string
	Times       []int64
	Cols        [][]float64
}

// absent is a cell its row lacks: math.NaN(), whose bits no arithmetic on
// stored (finite) values yields, so they mark an absent cell unambiguously.
var absent = math.NaN()

func isAbsent(v float64) bool { return math.Float64bits(v) == math.Float64bits(math.NaN()) }

// newTable makes an empty table with room for n rows, its columns cut
// from one array; Times stays nil when n is 0.
func newTable(measurement string, columns []string, n int) table {
	t := table{Measurement: measurement, Columns: columns, Cols: make([][]float64, len(columns))}
	if n > 0 {
		t.Times = make([]int64, 0, n)
	}
	cells := make([]float64, len(columns)*n)
	for ci := range t.Cols {
		t.Cols[ci] = cells[ci*n : ci*n : (ci+1)*n]
	}
	return t
}

// result builds the exported form of t, a Values map per row holding its
// present cells: the one place the engine's results turn into rows.
func (t *table) result() *Result {
	res := &Result{Measurement: t.Measurement, Columns: slices.Clone(t.Columns)}
	if t.Times != nil {
		res.Rows = make([]Row, len(t.Times))
	}
	for i, ts := range t.Times {
		vals := make(map[string]float64, len(t.Cols))
		for ci, col := range t.Cols {
			if !isAbsent(col[i]) {
				vals[t.Columns[ci]] = col[i]
			}
		}
		res.Rows[i] = Row{Time: ts, Values: vals}
	}
	return res
}

// QueryRequest is the request-struct form of a query, mirroring the
// daemon's context-first convention: either a pre-parsed Query or a
// SELECT statement to parse (Query wins when both are set).
type QueryRequest struct {
	// Statement is a SELECT statement, parsed when Query is nil.
	Statement string
	// Query is a pre-parsed query.
	Query *Query
	// Workers caps the parallel scan pool of an aggregate query;
	// <= 0 selects min(GOMAXPROCS, 16). The pool never outnumbers the
	// units that decode, and 1 — or a scan that folds from footers
	// alone — runs on the caller's goroutine.
	Workers int
	// SkipCache bypasses the query-result cache (both lookup and
	// fill) — benchmarking and freshness-critical reads.
	SkipCache bool
}

// ExecuteContext runs one query from its request form, holding the data
// lock shared for the scan. Aggregate queries run on the parallel
// block-aware engine (aggexec.go) behind the invalidation-correct result
// cache (querycache.go); raw SELECTs merge the sorted runs (sealed blocks
// + heads) of every matching series (rawexec.go). Each call returns a
// Result of its own, a cache hit's built from the resident table.
func (db *DB) ExecuteContext(ctx context.Context, req QueryRequest) (*Result, error) {
	t, err := db.execute(ctx, req)
	if err != nil {
		return nil, err
	}
	return t.result(), nil
}

// SeriesContext runs one query and returns one of its columns as the
// times and values of its present cells, in fresh slices: column names
// a result column, "" the first. A panel target reads its series so,
// without a map per row.
func (db *DB) SeriesContext(ctx context.Context, req QueryRequest, column string) ([]int64, []float64, error) {
	t, err := db.execute(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	ci := slices.Index(t.Columns, column)
	if column == "" && len(t.Cols) > 0 {
		ci = 0
	}
	if ci < 0 {
		return nil, nil, nil
	}
	ts, vs := make([]int64, 0, len(t.Times)), make([]float64, 0, len(t.Times))
	for i, v := range t.Cols[ci] {
		if !isAbsent(v) {
			ts, vs = append(ts, t.Times[i]), append(vs, v)
		}
	}
	return ts, vs, nil
}

// execute runs one query to its table. A cached aggregate's columns are
// the cache-resident ones, which callers read and never write.
func (db *DB) execute(ctx context.Context, req QueryRequest) (table, error) {
	if err := ctx.Err(); err != nil {
		return table{}, fmt.Errorf("tsdb: query: %w", err)
	}
	q := req.Query
	if q == nil {
		var err error
		q, err = ParseQuery(req.Statement)
		if err != nil {
			return table{}, err
		}
	}
	// Pre-parsed queries arrive unvalidated; hold them to the same
	// shape rules ParseQuery enforces.
	if len(q.Aggregates) > 0 && len(q.Fields) > 0 {
		return table{}, fmt.Errorf("tsdb: cannot mix raw fields and aggregates in one SELECT")
	}
	if q.GroupBy > 0 && len(q.Aggregates) == 0 {
		return table{}, fmt.Errorf("tsdb: GROUP BY time requires aggregate fields")
	}
	if len(q.Aggregates) > 0 {
		key := q.String()
		if !req.SkipCache {
			if t, ok := db.qcache.get(key); ok {
				return t, nil
			}
		}
		ver := db.qcache.version(q.Measurement)
		t, cells, err := db.execAggregate(ctx, q, req.Workers)
		if err != nil {
			return table{}, err
		}
		if !req.SkipCache {
			db.qcache.put(key, q.Measurement, ver, t, cells)
		}
		return t, nil
	}
	return db.execRaw(ctx, q)
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
