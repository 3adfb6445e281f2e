package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pmove/internal/core"
	"pmove/internal/introspect"
	"pmove/internal/introspect/traceexport"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// liveMonitor is Table III on the real stack: a core daemon with a probed
// skx target (88 hardware threads), five PMU metrics per tick (5 rows ×
// 88 fields = 440 points), telemetry.Session → Collector (zero-cost
// pipeline model, so any loss is real) → tsdb.Client WRITEB over loopback
// → tsdb.Server → durable store; after each acked tick the same goroutine
// refreshes a dashboard panel over the wire and checks the tick is in it.
// One connection, unthrottled: sampler, both wire directions, WAL, head
// insert and query sit on one blocking chain.
type liveMonitor struct{}

const (
	liveHost        = "skx"
	liveMetrics     = 5
	liveFreqHz      = 32 // Table III's highest; 1/32 s is exact in binary
	liveTicks       = 250
	liveWarmupTicks = 16
	liveTag         = "bench"
	refreshWindow   = 16  // ticks per GROUP BY window
	refreshRange    = 256 // ticks the panel looks back
)

// sampler is the target side of the pipeline: a daemon, a probed target
// with its PMU events programmed, and a session that ships every tick
// into sink.
type sampler struct {
	daemon *core.Daemon
	target *core.Target
	col    *telemetry.Collector
	sess   *telemetry.Session
	// panelMeas is the measurement the dashboard refresh reads.
	panelMeas string
	// probeMs and dashboardsMs time the two set-up steps the per-layer
	// list names.
	probeMs, dashboardsMs float64
}

// liveStack is a stood-up live_monitor pipeline.
type liveStack struct {
	*sampler
	srv    *tsdb.Server
	client *tsdb.Client
	sink   *timedSink

	clientIn, serverIn *introspect.Introspector

	// The reference the refresh is checked against: every tick's
	// timestamp and the panel field's value, as the sink saw them.
	panelField    string
	tickTimes     []int64
	tickValues    []float64
	pointsPerTick int64
	rowsPerTick   int64
}

// timedSink is the Collector's sink: it times each batch the collector
// ships and forwards it to the wire client unchanged.
type timedSink struct {
	next    telemetry.BatchPointSink
	onBatch func(ps []tsdb.Point)
	tr      *tracer
	parent  int
	op      int64
	lastMs  float64
}

func (s *timedSink) WritePoint(p tsdb.Point) error {
	return s.WriteBatchContext(context.Background(), []tsdb.Point{p})
}

func (s *timedSink) WriteBatchContext(ctx context.Context, ps []tsdb.Point) error {
	sp := s.tr.begin("sink.write_batch", s.op, s.parent, 0)
	t0 := time.Now()
	err := s.next.WriteBatchContext(ctx, ps)
	s.lastMs = ms(time.Since(t0))
	s.tr.end(sp)
	if err == nil && s.onBatch != nil {
		s.onBatch(ps)
	}
	return err
}

// liveEvents picks n core-scope PMU events, the never-zero ones Table III
// samples first.
func liveEvents(m *machine.Machine, n int) []string {
	cat := m.Catalog()
	events := cat.NeverZeroEvents()
	have := map[string]bool{}
	for _, e := range events {
		have[e] = true
	}
	for _, ev := range cat.Names() {
		if len(events) >= n {
			break
		}
		if def, _ := cat.Lookup(ev); def.PMU == "core" && !have[ev] {
			events = append(events, ev)
		}
	}
	if len(events) > n {
		events = events[:n]
	}
	return events
}

// newSampler stands up the target side. influxAddr only labels the KB.
func newSampler(ctx context.Context, influxAddr string, seed uint64, sink telemetry.PointSink) (*sampler, error) {
	sm := &sampler{}
	var err error
	sm.daemon, err = core.NewWith(core.WithEnv(core.Env{InfluxAddr: influxAddr, MongoAddr: "embedded", GrafanaToken: "bench"}))
	if err != nil {
		return nil, err
	}
	sys, err := topo.NewPreset(liveHost)
	if err != nil {
		sm.daemon.Close()
		return nil, err
	}
	// The zero PipelineConfig models a free link and a free insert: the
	// collector never declares a tick lost on its own account.
	if sm.target, err = sm.daemon.AttachTarget(sys, machine.Config{Seed: seed}, telemetry.PipelineConfig{}); err != nil {
		sm.daemon.Close()
		return nil, err
	}
	t0 := time.Now()
	kbase, err := sm.daemon.ProbeContext(ctx, liveHost)
	sm.probeMs = ms(time.Since(t0))
	if err != nil {
		sm.daemon.Close()
		return nil, err
	}
	// "The dashboards are already generated on the host when the target
	// starts reporting."
	t0 = time.Now()
	_, err = sm.daemon.Gen.KindDashboards(kbase)
	sm.dashboardsMs = ms(time.Since(t0))
	if err != nil {
		sm.daemon.Close()
		return nil, err
	}
	events := liveEvents(sm.target.Machine, liveMetrics)
	if err := sm.target.Machine.ProgramAll(events); err != nil {
		sm.daemon.Close()
		return nil, err
	}
	metrics := make([]string, len(events))
	for i, ev := range events {
		metrics[i] = telemetry.MetricForEvent(ev)
	}
	sort.Strings(metrics)
	sm.panelMeas = tsdb.MeasurementName(metrics[0])
	sm.col = telemetry.NewCollector(nil, telemetry.PipelineConfig{})
	sm.col.Sink = sink
	sm.sess, err = telemetry.NewSession(sm.target.PMCD, sm.col, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: liveFreqHz, Tag: liveTag,
	})
	if err != nil {
		sm.daemon.Close()
		return nil, err
	}
	return sm, nil
}

// standUpLive builds the whole pipeline around db, which may be
// in-memory (layer probes) or durable. hooks switches on the program's
// own tracing on both ends of the wire.
func standUpLive(ctx context.Context, db *tsdb.DB, seed uint64, hooks bool) (*liveStack, error) {
	ls := &liveStack{}
	ls.srv = tsdb.NewServer(db)
	addr, err := ls.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if ls.client, err = tsdb.Dial(addr); err != nil {
		ls.srv.Close()
		return nil, err
	}
	if hooks {
		ls.clientIn = introspect.New(introspect.WithProcess("pmovebench"), introspect.WithSpanCapacity(1<<17))
		ls.serverIn = introspect.New(introspect.WithProcess("tsdb-server"), introspect.WithSpanCapacity(1<<17))
		ls.client.Transport().SetIntrospection(ls.clientIn, "tsdb")
		ls.srv.SetTracing(ls.serverIn)
	}
	ls.sink = &timedSink{next: ls.client, parent: -1}
	ls.sink.onBatch = func(ps []tsdb.Point) {
		ls.rowsPerTick = int64(len(ps))
		ls.pointsPerTick = 0
		for i := range ps {
			ls.pointsPerTick += int64(len(ps[i].Fields))
			if ps[i].Measurement != ls.panelMeas {
				continue
			}
			if ls.panelField == "" {
				ls.panelField = firstField(ps[i])
			}
			ls.tickTimes = append(ls.tickTimes, ps[i].Time)
			ls.tickValues = append(ls.tickValues, ps[i].Fields[ls.panelField])
		}
	}
	if ls.sampler, err = newSampler(ctx, addr, seed, ls.sink); err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

func (ls *liveStack) close() {
	if ls.client != nil {
		ls.client.Close()
	}
	if ls.srv != nil {
		ls.srv.Close()
	}
	if ls.sampler != nil {
		ls.daemon.Close()
	}
}

// refreshStmt is the panel refresh after tick ts: count and mean of one
// field in windows of 16 ticks over the last 256 ticks.
func (ls *liveStack) refreshStmt(ts int64) *stmt {
	interval := int64(time.Second) / liveFreqHz
	return &stmt{
		class: "refresh", meas: ls.panelMeas, tag: liveTag,
		aggs:    []agg{{"count", ls.panelField}, {"mean", ls.panelField}},
		from:    ts - (refreshRange-1)*interval - interval/2,
		groupBy: refreshWindow * interval,
	}
}

// tick runs one sampling tick and the dashboard refresh behind it, and
// returns (write ms, query ms, tick-to-queryable ms).
func (ls *liveStack) tick(ctx context.Context, rc *roundCtx, op int64) (wMs, qMs, t2qMs float64, err error) {
	tickSp := rc.tr.begin("tick", op, -1, 0)
	t0 := time.Now()
	runSp := rc.tr.begin("telemetry.run_tick", op, tickSp, 0)
	ls.sink.tr, ls.sink.parent, ls.sink.op = rc.tr, runSp, op
	_, err = ls.sess.RunTicksContext(ctx, 1)
	rc.tr.end(runSp)
	if err != nil {
		return 0, 0, 0, err
	}
	ts := ls.tickTimes[len(ls.tickTimes)-1]
	q := ls.refreshStmt(ts)
	text := q.String()
	rc.digest.str(text)
	qSp := rc.tr.begin("dash.query", op, tickSp, 0)
	q0 := time.Now()
	res, err := ls.client.QueryContext(ctx, text)
	done := time.Now()
	rc.tr.end(qSp)
	rc.tr.end(tickSp)
	rc.check.op(2) // the tick's write and its refresh
	if err != nil {
		rc.check.fail("refresh after tick %d: %v", op, err)
		return ls.sink.lastMs, ms(done.Sub(q0)), ms(done.Sub(t0)), nil
	}
	if cerr := ls.checkRefresh(q, ts, res); cerr != nil {
		rc.check.fail("refresh after tick %d: %v", op, cerr)
	}
	return ls.sink.lastMs, ms(done.Sub(q0)), ms(done.Sub(t0)), nil
}

// checkRefresh holds a refresh reply to the ticks the sink saw acked: the
// newest window is the one the tick just written falls in, and every
// window has the count and the mean of exactly the acked ticks in it.
func (ls *liveStack) checkRefresh(q *stmt, ts int64, res *tsdb.Result) error {
	type acc struct {
		n   float64
		sum float64
	}
	wins := map[int64]*acc{}
	for i := len(ls.tickTimes) - 1; i >= 0 && ls.tickTimes[i] >= q.from; i-- {
		w := floorWindow(ls.tickTimes[i], q.groupBy)
		if wins[w] == nil {
			wins[w] = &acc{}
		}
		wins[w].n++
		wins[w].sum += ls.tickValues[i]
	}
	if len(res.Rows) != len(wins) {
		return fmt.Errorf("%d windows, %d hold acked ticks", len(res.Rows), len(wins))
	}
	if newest := res.Rows[len(res.Rows)-1].Time; newest != floorWindow(ts, q.groupBy) {
		return fmt.Errorf("tick at %d is not in the newest window (%d)", ts, newest)
	}
	countCol, meanCol := q.aggs[0].column(), q.aggs[1].column()
	for _, row := range res.Rows {
		w := wins[row.Time]
		if w == nil || row.Values[countCol] != w.n || !sameValue(row.Values[meanCol], w.sum/w.n) {
			return fmt.Errorf("window %d = %v, acked ticks give %+v", row.Time, row.Values, w)
		}
	}
	return nil
}

func (liveMonitor) round(ctx context.Context, rc *roundCtx) (*roundStats, error) {
	st := &roundStats{}
	ticks := rc.scaled(liveTicks, 8)
	warm := rc.scaled(liveWarmupTicks, 2)

	// Set-up: durable store, server, client, daemon, probe, dashboards,
	// session, and a few warm-up ticks so connection and series exist.
	t0 := time.Now()
	db, err := tsdb.Open(rc.dir, fsyncPolicy)
	if err != nil {
		return nil, err
	}
	defer db.Close() // no-op once durableTail has crashed it
	ls, err := standUpLive(ctx, db, rc.seed, rc.hooks)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	rc.digest.u64(rc.seed)
	warmRC := *rc
	warmRC.tr, warmRC.digest = nil, nil
	for i := 0; i < warm; i++ {
		if _, _, _, err := ls.tick(ctx, &warmRC, int64(-1-i)); err != nil {
			return nil, err
		}
	}
	st.setupS = time.Since(t0).Seconds()
	heap0 := heapInUse()

	// Timed section.
	start := time.Now()
	for i := 0; i < ticks; i++ {
		w, q, t2q, err := ls.tick(ctx, rc, int64(i))
		if err != nil {
			return nil, err
		}
		st.writeMs = append(st.writeMs, w)
		st.queryMs = append(st.queryMs, q)
		st.t2qMs = append(st.t2qMs, t2q)
	}
	st.writeWallS = time.Since(start).Seconds()
	st.writePoints = int64(ticks) * ls.pointsPerTick
	st.ops, st.opsS = int64(ticks), st.writeWallS

	// Loss accounting, Table III's way and the store's way.
	total := int64(ticks + warm)
	st.pointsAttempted = total * ls.pointsPerTick
	_, values := db.Stats()
	st.pointsQueryable = int64(values)
	rc.check.op(1)
	if ls.col.Lost != 0 || ls.col.Expected != ls.col.Inserted || int64(ls.col.Inserted) != st.pointsAttempted {
		rc.check.fail("collector: expected %d inserted %d lost %d, %d points attempted",
			ls.col.Expected, ls.col.Inserted, ls.col.Lost, st.pointsAttempted)
	}
	st.residentPoints = st.pointsQueryable
	st.heapBytes = heapInUse() - heap0
	st.durablePoints = st.pointsAttempted
	st.retries = ls.client.Stats().Retries
	if rc.hooks {
		st.wireSeconds = wireSeconds(ls.clientIn, ls.serverIn)
		readHooks(ls.serverIn, st)
	}
	for i := range ls.tickTimes {
		rc.digest.u64(uint64(ls.tickTimes[i]))
	}

	fieldOf := map[string]string{}
	for _, m := range db.Measurements() {
		fieldOf[m] = ls.panelField
	}
	verify := func(db *tsdb.DB, stage string) error {
		return conservation(ctx, rc, db, stage, total*ls.rowsPerTick, fieldOf)
	}
	if err := verify(db, "after ingest"); err != nil {
		return nil, err
	}
	ls.client.Close()
	if err := ls.srv.Close(); err != nil {
		return nil, err
	}
	ls.client, ls.srv = nil, nil
	if err := durableTail(ctx, rc, db, st, verify); err != nil {
		return nil, err
	}
	return st, nil
}

// firstField is the row's smallest field name — the one the panel reads.
func firstField(p tsdb.Point) string {
	first := ""
	for f := range p.Fields {
		if first == "" || f < first {
			first = f
		}
	}
	return first
}

// wireParts names the hops traceexport.Attribute splits wire time into,
// in the order wireSeconds holds them.
var wireParts = [...]string{"client_queue", "network", "retry", "server_parse", "server_queue", "server_insert"}

// wireSeconds sums traceexport.Attribute over every trace the client and
// server rings hold (each wire op is its own trace).
func wireSeconds(clientIn, serverIn *introspect.Introspector) (out [len(wireParts)]float64) {
	col := traceexport.NewCollector()
	col.Add("pmovebench", clientIn.Tracer())
	col.Add("tsdb-server", serverIn.Tracer())
	for _, tr := range col.Traces() {
		a := traceexport.Attribute(tr)
		for i, v := range []float64{a.ClientQueueSeconds, a.NetworkSeconds, a.RetrySeconds,
			a.ServerParseSeconds, a.ServerQueueSeconds, a.ServerInsertSecs} {
			out[i] += v
		}
	}
	return out
}

// readHooks copies the store's public self-metrics (query.cache.*
// counters, storage.* gauges) out of the registry they publish into.
func readHooks(in *introspect.Introspector, st *roundStats) {
	snap := in.Snapshot()
	st.cacheHits = snap.CounterValue("query.cache.hits")
	st.cacheMisses = snap.CounterValue("query.cache.misses")
	st.cacheEvictions = snap.CounterValue("query.cache.evictions")
	st.cacheInvalidations = snap.CounterValue("query.cache.invalidations")
	st.storageBytes = snap.GaugeValue("storage.bytes")
	st.compressionRatio = snap.GaugeValue("storage.compression.ratio")
}
