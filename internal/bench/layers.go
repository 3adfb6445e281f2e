package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pmove/internal/dashboard"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// The traced pass and the layer probes. RunTraced runs the workload with
// rounds alternating untraced and traced (harness spans plus the
// program's own hooks: Server.SetTracing, Transport.SetIntrospection,
// DB.SetIntrospection), so tracing overhead is the ratio of the two.
// Probes times each layer from outside, through its public functions, on
// inputs of the workloads' shapes; it does not depend on the workload, so
// a full run makes it once. Nothing here has a bound; the numbers say
// where an end-to-end change came from.

// RunTraced executes one workload's traced pass and reports what running
// the workload says about the layers.
func RunTraced(ctx context.Context, name string, opts Options) (*Result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if opts, err = opts.withDefaults(); err != nil {
		return nil, err
	}
	check := &checker{}
	var digest *opDigest
	if opts.Digest {
		digest = newOpDigest()
	}
	tr := newTracer()
	rounds, err := runRounds(ctx, name, w, opts, 2, check, digest, func(i int) (*tracer, bool) {
		if i%2 == 1 {
			return tr, true
		}
		return nil, false
	})
	if err != nil {
		return nil, err
	}
	var plain, hooked []*roundStats
	for _, r := range rounds {
		if r.traced {
			hooked = append(hooked, r)
		} else {
			plain = append(plain, r)
		}
	}
	res := newResult(name, opts, true, len(rounds), check, digest)
	fromRounds(name, plain, hooked, check, tr, res.Metrics)
	res.SpanNames = tr.names()
	if res.chrome, err = tr.chromeTrace(); err != nil {
		return nil, err
	}
	return res, nil
}

// Probes times the layers one at a time and reports the per-layer metrics
// that do not come from running a workload, as workload "layer_probes".
func Probes(ctx context.Context, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	check := &checker{}
	p := &probes{ctx: ctx, opts: opts, seed: newRNG(opts.Seed, 1<<32).next(), check: check, m: map[string]Metric{}}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("bench: layer probes: %w", err)
	}
	res := newResult("layer_probes", opts, true, 0, check, nil)
	res.Metrics = p.m
	return res, nil
}

// fromRounds derives the metrics that come from running the workload:
// its end-to-end metrics and the two tails (from the untraced rounds) and
// what the spans and the program's own hooks saw (from the traced ones).
// A quantity a workload does not have reads 0.
func fromRounds(name string, plain, hooked []*roundStats, check *checker, tr *tracer, m map[string]Metric) {
	endToEnd(name, plain, check, m)
	t2q := pooled(plain, func(r *roundStats) []float64 { return r.t2qMs })
	queries := pooled(plain, func(r *roundStats) []float64 { return r.queryMs })
	orZero := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, q)
	}
	m["tick_to_queryable_p99_ms"] = Metric{orZero(t2q, 0.99), "ms", len(t2q)}
	m["query_p99_ms"] = Metric{orZero(queries, 0.99), "ms", len(queries)}
	med := func(rs []*roundStats, f func(*roundStats) float64) float64 {
		if len(rs) == 0 {
			return 0
		}
		return median(over(rs, f))
	}
	var retries uint64
	for _, r := range append(append([]*roundStats(nil), plain...), hooked...) {
		retries += r.retries
	}
	m["resilience.retries"] = Metric{float64(retries), "count", 0}

	opsPerS := func(r *roundStats) float64 { return ratio(float64(r.ops), r.opsS) }
	m["introspect.trace_overhead_ratio"] = Metric{ratio(med(hooked, opsPerS), med(plain, opsPerS)), "ratio", 0}

	_, self := tr.durations()
	m["telemetry.offer_self_us"] = Metric{orZero(self["telemetry.run_tick"], 0.5), "us", len(self["telemetry.run_tick"])}

	var wire [len(wireParts)]float64
	for _, r := range hooked {
		for i, v := range r.wireSeconds {
			wire[i] += v
		}
	}
	total := sum(wire[:])
	for i, part := range wireParts {
		m["wire."+part+"_share"] = Metric{ratio(wire[i], total), "ratio", 0}
	}

	var hits, misses float64
	for _, r := range hooked {
		hits += float64(r.cacheHits)
		misses += float64(r.cacheMisses)
	}
	m["tsdb.cache_hit_ratio"] = Metric{ratio(hits, hits+misses), "ratio", 0}
	m["tsdb.cache_evictions"] = Metric{med(hooked, func(r *roundStats) float64 { return float64(r.cacheEvictions) }), "count", 0}
	m["tsdb.cache_invalidations"] = Metric{med(hooked, func(r *roundStats) float64 { return float64(r.cacheInvalidations) }), "count", 0}
	m["tsdb.compression_ratio"] = Metric{med(hooked, func(r *roundStats) float64 { return r.compressionRatio }), "ratio", 0}
	m["tsdb.storage_bytes_per_point"] = Metric{med(hooked, func(r *roundStats) float64 {
		return ratio(r.storageBytes, float64(r.residentPoints))
	}), "B/point", 0}
}

// probes times the layers one at a time.
type probes struct {
	ctx   context.Context
	opts  Options
	seed  uint64
	check *checker
	m     map[string]Metric
}

// n scales an iteration count.
func (p *probes) n(k, min int) int { return scaled(k, p.opts.Scale, min) }

func (p *probes) set(name string, v float64, unit string, n int) { p.m[name] = Metric{v, unit, n} }

// each times n calls of fn one by one and returns the durations in µs.
func each(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// perCall times fn in five chunks of n/5 calls and returns the median
// chunk's nanoseconds per call, and the calls made — for calls too short
// to time singly.
func perCall(n int, fn func()) (ns float64, calls int) {
	const chunks = 5
	per := n / chunks
	if per < 1 {
		per = 1
	}
	out := make([]float64, chunks)
	for c := range out {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		out[c] = float64(time.Since(t0)) / float64(per)
	}
	return median(out), chunks * per
}

// mallocs runs fn and returns the heap allocations (count, bytes) made
// meanwhile — process-wide, so only meaningful while nothing else runs.
func mallocs(fn func() error) (count, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

func (p *probes) run() error {
	dir, err := os.MkdirTemp(p.opts.Dir, "layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tick, err := p.telemetry()
	if err != nil {
		return err
	}
	p.lineproto(tick)
	if err := p.storage(dir); err != nil {
		return err
	}
	if err := p.store(dir, tick); err != nil {
		return err
	}
	if err := p.query(); err != nil {
		return err
	}
	if err := p.wire(tick); err != nil {
		return err
	}
	return p.chain(dir)
}

// captureSink is the discard sink of the sampler probe; it keeps the
// newest batch so later probes can replay a real 5 × 88 tick.
type captureSink struct{ last []tsdb.Point }

func (s *captureSink) WritePoint(tsdb.Point) error { return nil }
func (s *captureSink) WriteBatchContext(_ context.Context, ps []tsdb.Point) error {
	s.last = ps
	return nil
}

// telemetry: one sampling tick into a discard sink, and the two set-up
// steps (probe, dashboard generation) of the target side.
func (p *probes) telemetry() ([]tsdb.Point, error) {
	var probeMs, dashMs []float64
	var sm *sampler
	sink := &captureSink{}
	for i := 0; i < 3; i++ {
		if sm != nil {
			sm.daemon.Close()
		}
		var err error
		if sm, err = newSampler(p.ctx, "embedded", p.seed, sink); err != nil {
			return nil, err
		}
		probeMs = append(probeMs, sm.probeMs)
		dashMs = append(dashMs, sm.dashboardsMs)
	}
	defer sm.daemon.Close()
	p.set("core.probe_ms", median(probeMs), "ms", len(probeMs))
	p.set("dashboard.kind_dashboards_ms", median(dashMs), "ms", len(dashMs))
	if _, err := sm.sess.RunTicksContext(p.ctx, 2); err != nil {
		return nil, err
	}
	n := p.n(300, 5)
	var lat []float64
	count, _, err := mallocs(func() (err error) {
		lat, err = each(n, func(int) error {
			_, err := sm.sess.RunTicksContext(p.ctx, 1)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.set("telemetry.sample_tick_us", median(lat), "us", n)
	p.set("telemetry.allocs_per_tick", count/float64(n), "count", 0)
	return sink.last, nil
}

// lineproto: encode and decode of an 8-field row (the generated
// workloads' shape) and an 88-field row (one PMU metric across skx).
func (p *probes) lineproto(tick []tsdb.Point) {
	row8 := newBatchSource(p.seed, nil, "bulk_a", "h0", 1, 0, 0).next(nil)
	n := p.n(2000, 10)
	for _, c := range []struct {
		infix string
		pt    tsdb.Point
	}{{"", row8[0]}, {"f88_", tick[0]}} {
		fields := float64(len(c.pt.Fields))
		var line string
		enc, _ := perCall(n, func() { line, _ = tsdb.EncodeLine(c.pt) })
		var dec float64
		var calls int
		count, _, _ := mallocs(func() error {
			dec, calls = perCall(n, func() { tsdb.DecodeLine(line) })
			return nil
		})
		p.set("tsdb.encode_line_"+c.infix+"ns_per_point", enc/fields, "ns/point", n)
		p.set("tsdb.decode_line_"+c.infix+"ns_per_point", dec/fields, "ns/point", n)
		p.set("tsdb.decode_line_"+c.infix+"allocs_per_row", count/float64(calls), "count", 0)
	}
}

// storage: WAL append under each flush policy, framing overhead, replay
// and compaction, on one 256-line batch record.
func (p *probes) storage(dir string) error {
	buf := newBatchSource(p.seed, nil, "bulk_a", "h0", bulkBatchRows, 0, 0).next(nil)
	bodies := make([][]byte, len(buf))
	for i := range buf {
		line, err := tsdb.EncodeLine(buf[i])
		if err != nil {
			return err
		}
		bodies[i] = []byte(line)
	}
	batch := storage.EncodeBatchBody(bodies)
	n := p.n(100, 5)
	appendUs := func(name string, pol storage.FsyncPolicy, payload []byte) (float64, *storage.WAL, error) {
		w, _, _, err := storage.OpenWAL(filepath.Join(dir, name), pol)
		if err != nil {
			return 0, nil, err
		}
		lat, err := each(n, func(int) error {
			_, err := w.Append(payload)
			return err
		})
		if err != nil {
			w.Close()
			return 0, nil, err
		}
		return median(lat), w, nil
	}
	var always, never float64
	for _, pol := range []storage.FsyncPolicy{storage.FsyncAlways, storage.FsyncInterval, storage.FsyncNever} {
		us, w, err := appendUs("wal-"+string(pol), pol, batch)
		if err != nil {
			return err
		}
		p.set("storage.wal_append_"+string(pol)+"_us", us, "us", n)
		switch pol {
		case storage.FsyncAlways:
			always = us
			size := w.Size()
			p.set("storage.wal_overhead_ratio", float64(size)/float64(n*len(batch)), "ratio", 0)
			if err := w.Close(); err != nil {
				return err
			}
			t0 := time.Now()
			w2, recs, _, err := storage.OpenWAL(filepath.Join(dir, "wal-"+string(pol)), pol)
			took := time.Since(t0)
			if err != nil {
				return err
			}
			w = w2
			p.check.op(1)
			if len(recs) != n {
				p.check.fail("WAL replay returned %d records, %d were appended", len(recs), n)
			}
			p.set("storage.open_replay_mb_per_s", float64(size)/1e6/took.Seconds(), "MB/s", 1)
		case storage.FsyncNever:
			never = us
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	us, w, err := appendUs("wal-small", storage.FsyncAlways, bodies[0])
	if err != nil {
		return err
	}
	w.Close()
	p.set("storage.wal_append_small_always_us", us, "us", n)

	// A bare write+fsync of the same payload next to the WAL files: the
	// device's share of an always-append, and how many of it one batch
	// costs (always − never, in fsyncs).
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	syncs, err := each(n, func(int) error {
		if _, err := f.Write(batch); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	p.set("storage.fsync_us", median(syncs), "us", n)
	p.set("storage.fsyncs_per_batch", ratio(always-never, median(syncs)), "ratio", 0)

	st, _, err := storage.Open(filepath.Join(dir, "compact"), storage.FsyncAlways)
	if err != nil {
		return err
	}
	defer st.Close()
	var state []byte
	for i := 0; i < n; i++ {
		if _, err := st.Append(batch); err != nil {
			return err
		}
		state = append(state, batch...)
	}
	t0 := time.Now()
	if err := st.Compact(state); err != nil {
		return err
	}
	p.set("storage.compact_ms", ms(time.Since(t0)), "ms", 1)
	return nil
}

// stopwatch accumulates the time spent inside the program's calls, so
// generator work between calls is not charged to the program.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.t0)
	s.total += d
	return d
}

// writeBatches pushes n generated 256-row batches per writer into db,
// one measurement per writer, and returns the time inside the store's
// calls (one writer) or the wall time (several), and the points written.
func (p *probes) writeBatches(db *tsdb.DB, writers, n, oooPct int) (time.Duration, float64, error) {
	ws := make([]*batchSource, writers)
	for i := range ws {
		ws[i] = newBatchSource(newRNG(p.seed, uint64(i)).next(), nil, fmt.Sprintf("probe_%d", i), "h0", bulkBatchRows, oooPct, 1)
	}
	points := float64(writers * n * bulkBatchRows * nFields)
	if writers == 1 {
		var sw stopwatch
		for b := 0; b < n; b++ {
			batch := ws[0].next(nil)
			sw.start()
			err := db.WriteBatchContext(p.ctx, batch)
			sw.stop()
			if err != nil {
				return 0, 0, err
			}
		}
		return sw.total, points, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	t0 := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *batchSource) {
			defer wg.Done()
			for b := 0; b < n && errs[i] == nil; b++ {
				errs[i] = db.WriteBatchContext(p.ctx, w.next(nil))
			}
		}(i, w)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return wall, points, nil
}

// store: the embedded write path in memory and durable, its allocations,
// whether a second writer pays, and both ways of opening a data
// directory. Also a real tick written both ways, for the chain probe.
func (p *probes) store(dir string, tick []tsdb.Point) error {
	n := p.n(40, 3)
	var took time.Duration
	var points, count, bytes float64
	// Allocation counts are process-wide, so a straggling goroutine of an
	// earlier stack can add a few; the smallest of three identical passes
	// is the write path's own.
	for pass := 0; pass < 3; pass++ {
		c, b, err := mallocs(func() (err error) {
			took, points, err = p.writeBatches(tsdb.New(), 1, n, 0)
			return err
		})
		if err != nil {
			return err
		}
		if pass == 0 || c < count {
			count, bytes = c, b
		}
	}
	p.set("tsdb.mem_write_ns_per_point", float64(took)/points, "ns/point", n)
	p.set("tsdb.write_allocs_per_point", count/points, "count", 0)
	p.set("tsdb.write_alloc_bytes_per_point", bytes/points, "B/point", 0)
	var err error
	if took, points, err = p.writeBatches(tsdb.New(), 1, n, bulkOOOPct); err != nil {
		return err
	}
	p.set("tsdb.mem_write_ooo_ns_per_point", float64(took)/points, "ns/point", n)

	one := filepath.Join(dir, "writers1")
	db, err := tsdb.Open(one, fsyncPolicy)
	if err != nil {
		return err
	}
	if took, points, err = p.writeBatches(db, 1, n, 0); err != nil {
		db.Close()
		return err
	}
	p.set("tsdb.durable_write_ns_per_point", float64(took)/points, "ns/point", n)
	w1 := points / took.Seconds()
	p.set("tsdb.writers1_points_per_s", w1, "1/s", n)
	if err := db.Crash(); err != nil {
		return err
	}
	t0 := time.Now()
	if db, err = tsdb.Open(one, fsyncPolicy); err != nil {
		return err
	}
	p.set("tsdb.open_replay_points_per_s", points/time.Since(t0).Seconds(), "1/s", 1)
	if err := db.Compact(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if db, err = tsdb.Open(one, fsyncPolicy); err != nil {
		return err
	}
	p.set("tsdb.open_snapshot_points_per_s", points/time.Since(t0).Seconds(), "1/s", 1)
	p.check.op(1)
	if _, values := db.Stats(); float64(values) != points {
		p.check.fail("store probe: %v points written, %d after replay, compaction and snapshot load", points, values)
	}
	db.Close()

	if db, err = tsdb.Open(filepath.Join(dir, "writers2"), fsyncPolicy); err != nil {
		return err
	}
	took, points, err = p.writeBatches(db, 2, n, 0)
	db.Close()
	if err != nil {
		return err
	}
	w2 := points / took.Seconds()
	p.set("tsdb.writers2_points_per_s", w2, "1/s", n)
	p.set("tsdb.writer_scaling_ratio", w2/w1, "ratio", 0)

	// The captured tick, written embedded: in memory, then durably. The
	// difference is what line-protocol encode and the WAL add to a tick.
	if db, err = tsdb.Open(filepath.Join(dir, "tick"), fsyncPolicy); err != nil {
		return err
	}
	defer db.Close()
	nt := p.n(100, 5)
	for _, c := range []struct {
		name string
		db   *tsdb.DB
	}{{"tsdb.mem_tick_write_us", tsdb.New()}, {"tsdb.durable_tick_write_us", db}} {
		lat, err := each(nt, func(i int) error {
			shiftTick(tick, int64(time.Second)/liveFreqHz)
			return c.db.WriteBatchContext(p.ctx, tick)
		})
		if err != nil {
			return err
		}
		p.set(c.name, median(lat), "us", nt)
	}
	return nil
}

// shiftTick moves a captured tick one sampling interval on, so replaying
// it appends to the head like the next real tick would.
func shiftTick(tick []tsdb.Point, by int64) {
	for i := range tick {
		tick[i].Time += by
	}
}

// query: each statement class of dash_cold with the result cache
// bypassed, the worker pool against one worker, a full decode-forcing
// scan, the parser, a cache hit, and a panel fetch.
func (p *probes) query() error {
	rc := &roundCtx{seed: p.seed, scale: p.opts.Scale, check: p.check}
	d, err := preloadDash(p.ctx, rc, tsdb.New())
	if err != nil {
		return err
	}
	stmts := dashStatements(newRNG(p.seed, 7), p.n(200, 20), d.measurements, dashTags, d.blocks, d.rowsPer)
	byClass := map[string][]*stmt{}
	for _, q := range stmts {
		byClass[q.class] = append(byClass[q.class], q)
	}
	run := func(qs []*stmt, workers int) ([]float64, error) {
		return each(len(qs), func(i int) error {
			_, err := d.db.ExecuteContext(p.ctx, tsdb.QueryRequest{Statement: qs[i].String(), SkipCache: true, Workers: workers})
			return err
		})
	}
	for _, class := range []string{"footer", "decode", "pctl", "raw", "head"} {
		lat, err := run(byClass[class], 0)
		if err != nil {
			return err
		}
		p.set("tsdb.query_"+class+"_us", median(lat), "us", len(lat))
	}
	w1, err := run(byClass["decode"], 1)
	if err != nil {
		return err
	}
	p.set("tsdb.query_decode_w1_us", median(w1), "us", len(w1))
	p.set("tsdb.query_worker_scaling_ratio", ratio(median(w1), p.m["tsdb.query_decode_us"].Value), "ratio", 0)

	scan := &stmt{meas: d.measurements[0], aggs: []agg{{"sum", "f0"}}, groupBy: 777 * timeStep}
	lat, err := run([]*stmt{scan, scan, scan, scan, scan}, 0)
	if err != nil {
		return err
	}
	p.set("tsdb.query_scan_points_per_s", float64(len(dashTags))*float64(d.rowsPer)/(median(lat)/1e6), "1/s", len(lat))

	texts := make([]string, len(stmts))
	for i, q := range stmts {
		texts[i] = q.String()
	}
	i := 0
	parse, calls := perCall(5*len(texts), func() {
		tsdb.ParseQuery(texts[i%len(texts)])
		i++
	})
	p.set("tsdb.parse_query_us", parse/1e3, "us", calls)

	hit := byClass["footer"][0].String()
	if lat, err = each(p.n(200, 5)+1, func(int) error {
		_, err := d.db.ExecuteContext(p.ctx, tsdb.QueryRequest{Statement: hit})
		return err
	}); err != nil {
		return err
	}
	p.set("tsdb.cache_hit_us", median(lat[1:]), "us", len(lat)-1)

	if lat, err = each(len(byClass["footer"]), func(i int) error {
		_, _, err := dashboard.FetchSeriesContext(p.ctx, d.db, byClass["footer"][i].target())
		return err
	}); err != nil {
		return err
	}
	p.set("dashboard.fetch_series_us", median(lat), "us", len(lat))
	return nil
}

// wire: round trips against an in-memory server — the floor (PING), one
// real tick as a WRITEB, the refresh-shaped query right after a write
// (a cache miss, ~17 rows), and a cached 2 048-row panel whose cost is
// serialisation.
func (p *probes) wire(tick []tsdb.Point) error {
	db := tsdb.New()
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := tsdb.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	n := p.n(200, 5)
	lat, err := each(n, func(int) error { return c.PingContext(p.ctx) })
	if err != nil {
		return err
	}
	p.set("tsdb.wire_ping_rtt_us", median(lat), "us", n)

	ls := &liveStack{sampler: &sampler{panelMeas: tick[0].Measurement}, panelField: firstField(tick[0])}
	interval := int64(time.Second) / liveFreqHz
	var writes, small []float64
	for i := 0; i < n; i++ {
		shiftTick(tick, interval)
		t0 := time.Now()
		if err := c.WriteBatchContext(p.ctx, tick); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := c.QueryContext(p.ctx, ls.refreshStmt(tick[0].Time).String()); err != nil {
			return err
		}
		writes = append(writes, float64(t1.Sub(t0))/1e3)
		small = append(small, float64(time.Since(t1))/1e3)
	}
	p.set("tsdb.wire_writeb_rtt_us", median(writes), "us", n)
	p.set("tsdb.wire_query_small_rtt_us", median(small), "us", n)

	const bigRows = 2048
	if err := c.WriteBatchContext(p.ctx, newBatchSource(p.seed, nil, "big", "h0", bigRows, 0, 0).next(nil)); err != nil {
		return err
	}
	big := (&stmt{meas: "big", aggs: []agg{{"mean", "f0"}}, groupBy: timeStep}).String()
	var res *tsdb.Result
	if lat, err = each(p.n(50, 3)+1, func(int) (err error) {
		res, err = c.QueryContext(p.ctx, big)
		return err
	}); err != nil {
		return err
	}
	p.set("tsdb.wire_query_large_rtt_us", median(lat[1:]), "us", len(lat)-1)
	p.check.op(1)
	if len(res.Rows) != bigRows {
		p.check.fail("wire probe: large panel returned %d rows, want %d", len(res.Rows), bigRows)
	}
	// The server's reply is json.Marshal of the result plus a newline.
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	p.set("tsdb.wire_result_bytes_per_row", float64(len(body)+1)/float64(len(res.Rows)), "B/row", 0)
	return nil
}

// chain: ROADMAP's "the layers must add up", reported rather than
// assumed. A short untraced live_monitor round gives the measured
// tick-to-queryable median; the parts are the sampler tick, the WRITEB
// round trip into memory, what durability adds to that tick, and the
// refresh round trip, each timed alone by the probes above.
func (p *probes) chain(dir string) error {
	rdir, err := os.MkdirTemp(dir, "chain-*")
	if err != nil {
		return err
	}
	rc := &roundCtx{seed: p.seed, scale: p.opts.Scale * 0.4, dir: rdir, check: p.check}
	st, err := liveMonitor{}.round(p.ctx, rc)
	if err != nil {
		return err
	}
	measured := median(st.t2qMs) * 1e3
	parts := p.m["telemetry.sample_tick_us"].Value + p.m["tsdb.wire_writeb_rtt_us"].Value +
		p.m["tsdb.durable_tick_write_us"].Value - p.m["tsdb.mem_tick_write_us"].Value +
		p.m["tsdb.wire_query_small_rtt_us"].Value
	p.set("bench.chain_tick_to_queryable_us", measured, "us", len(st.t2qMs))
	p.set("bench.unattributed_share", 1-ratio(parts, measured), "ratio", 0)
	return nil
}
