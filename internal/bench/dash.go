package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pmove/internal/dashboard"
	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// dashCold is the read path and nothing else: an in-memory store
// preloaded in set-up (4 measurements × 2 tag values, sealed blocks plus
// live heads), then one goroutine cycles a seed-shuffled working set of
// distinct statements that is larger than the result cache — the LRU
// never hits but pays insert and evict — half through
// dashboard.FetchSeriesContext, half through DB.ExecuteContext. Block
// decode, footer fold, merge and cache bookkeeping do all the work; WAL,
// wire and telemetry do none.
type dashCold struct{}

const (
	dashMeasurements = 4
	dashBlocks       = 8    // sealed blocks per series
	dashHeadRows     = 1500 // rows left in each live head
	dashBatchRows    = 256
	dashWorkingSet   = 1024 // distinct; the result cache holds 256
	dashQueries      = 2048 // two passes over the working set
	dashVerifyEvery  = 50
)

var dashTags = []string{"h0", "h1"}

// dashData is a preloaded in-memory store and the reference copy of it.
type dashData struct {
	db           *tsdb.DB
	ref          *refStore
	measurements []string
	rowsPer      int64 // rows per series
	blocks       int
	heap0        int64          // live heap once the reference and buffers exist, before the first write
	sources      []*batchSource // kept so the row buffers stay live until the heap is read again
}

// preloadDash builds the dash_cold dataset. Batches rotate over the
// series so every head grows together.
func preloadDash(ctx context.Context, rc *roundCtx, db *tsdb.DB) (*dashData, error) {
	d := &dashData{db: db, ref: &refStore{}}
	perSeries := rc.scaled(dashBlocks*blockRows+dashHeadRows, 2*dashBatchRows)
	nBatches := (perSeries + dashBatchRows - 1) / dashBatchRows
	d.rowsPer = int64(nBatches * dashBatchRows)
	d.blocks = int(d.rowsPer / blockRows)
	for mi := 0; mi < dashMeasurements; mi++ {
		meas := fmt.Sprintf("dash_%d", mi)
		d.measurements = append(d.measurements, meas)
		for ti, tag := range dashTags {
			d.sources = append(d.sources, newBatchSource(newRNG(rc.seed, uint64(mi), uint64(ti)).next(),
				d.ref.newSeries(meas, tag, int(d.rowsPer)), meas, tag, dashBatchRows, 0, 1))
		}
	}
	d.heap0 = heapInUse()
	for b := 0; b < nBatches; b++ {
		for _, src := range d.sources {
			if err := db.WriteBatchContext(ctx, src.next(rc.digest)); err != nil {
				return nil, err
			}
		}
	}
	rc.check.op(int64(nBatches * len(d.sources)))
	return d, nil
}

// query runs one statement the way its class is routed and returns the
// latency; check compares the reply with the reference.
func (d *dashData) query(ctx context.Context, rc *roundCtx, q *stmt, op int64, check bool) (time.Duration, error) {
	want := (*tsdb.Result)(nil)
	if check {
		want = d.ref.eval(q, 0)
	}
	rc.check.op(1)
	sp := rc.tr.begin("query", op, -1, 0)
	defer rc.tr.end(sp)
	if q.viaDashboard {
		target := q.target()
		inner := rc.tr.begin("dashboard.fetch_series", op, sp, 0)
		t0 := time.Now()
		ts, vs, err := dashboard.FetchSeriesContext(ctx, d.db, target)
		took := time.Since(t0)
		rc.tr.end(inner)
		if err != nil {
			rc.check.fail("%s: %v", q, err)
		} else if check {
			if derr := sameSeries(ts, vs, want, q.aggs[0].column()); derr != nil {
				rc.check.fail("%s: %v", q, derr)
			}
		}
		return took, nil
	}
	text := q.String()
	inner := rc.tr.begin("tsdb.execute", op, sp, 0)
	t0 := time.Now()
	res, err := d.db.ExecuteContext(ctx, tsdb.QueryRequest{Statement: text})
	took := time.Since(t0)
	rc.tr.end(inner)
	if err != nil {
		rc.check.fail("%s: %v", text, err)
	} else if check {
		if derr := sameResult(res, want); derr != nil {
			rc.check.fail("%s: %v", text, derr)
		}
	}
	return took, nil
}

func (dashCold) round(ctx context.Context, rc *roundCtx) (*roundStats, error) {
	st := &roundStats{}

	// Set-up: the store and its preload, by the wall clock.
	t0 := time.Now()
	db := tsdb.New()
	var in *introspect.Introspector
	if rc.hooks {
		in = introspect.New()
		db.SetIntrospection(in)
	}
	d, err := preloadDash(ctx, rc, db)
	if err != nil {
		return nil, err
	}
	st.setupS = time.Since(t0).Seconds()
	rows := d.ref.rows()

	nStmts := rc.scaled(dashWorkingSet, 20)
	nQueries := rc.scaled(dashQueries, 40)
	stmts := workingSet(rc, d, nStmts)

	// Timed section: cycle the shuffled working set.
	for i := 0; i < nQueries; i++ {
		q := stmts[i%len(stmts)]
		took, err := d.query(ctx, rc, q, int64(i), i%dashVerifyEvery == 0)
		if err != nil {
			return nil, err
		}
		st.queryMs = append(st.queryMs, ms(took))
	}
	st.ops, st.opsS = int64(nQueries), sum(st.queryMs)/1e3

	st.pointsAttempted = rows * nFields
	_, values := db.Stats()
	st.pointsQueryable = int64(values)
	st.residentPoints = st.pointsQueryable
	fieldOf := map[string]string{}
	for _, m := range d.measurements {
		fieldOf[m] = fieldNames[0]
	}
	if err := conservation(ctx, rc, db, "after queries", rows, fieldOf); err != nil {
		return nil, err
	}
	if rc.hooks {
		readHooks(in, st)
	}
	st.heapBytes = heapInUse() - d.heap0
	runtime.KeepAlive(d.sources)
	return st, nil
}

// workingSet draws the round's working set and feeds the digest.
func workingSet(rc *roundCtx, d *dashData, n int) []*stmt {
	stmts := dashStatements(newRNG(rc.seed, 99), n, d.measurements, dashTags, d.blocks, d.rowsPer)
	for _, q := range stmts {
		rc.digest.str(q.String())
	}
	return stmts
}
