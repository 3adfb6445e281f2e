package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// mixedRW uses one durable store both ways at once, over loopback: a
// writer sends WRITEB batches of 64 rows × 8 fields into measurement
// "hot" while a reader loops 16 dashboard statements through
// Client.QueryContext until the writer finishes — 7 on "hot" (every
// write invalidates them, so they recompute) and 9 full-range panel
// queries on three quiescent measurements (cache hits whose ~2 500-row
// results still cross the wire). The quiescent statements are the
// majority so that the median query is one of them, not the boundary
// between two populations. Two connections. A read-side gain
// bought with longer lock holds, bigger cached copies or costlier
// invalidation shows up here as lost write throughput, and the other way
// round; it is also the only workload where cache hits and result
// serialisation dominate a latency.
type mixedRW struct{}

const (
	mixedBatchRows   = 64
	mixedBatches     = 110
	mixedPreloadRows = 2560 // per measurement: hot and three quiescent
	mixedQuiet       = 3
	mixedVerifyEvery = 49 // coprime with the 16 statements, so every one gets checked
)

func mixedStatements(hotRows int64) []*stmt {
	one := func(fn, field string) []agg { return []agg{{fn, field}} }
	out := []*stmt{
		{class: "hot", meas: "hot", aggs: one("count", "f0")},
		{class: "hot", meas: "hot", aggs: one("sum", "f1")},
		{class: "hot", meas: "hot", aggs: one("mean", "f2")},
		{class: "hot", meas: "hot", aggs: one("min", "f3")},
		{class: "hot", meas: "hot", aggs: one("max", "f4")},
		{class: "hot", meas: "hot", tag: "h0", aggs: one("p50", "f5")},
		{class: "hot", meas: "hot", aggs: []agg{{"count", "f1"}, {"mean", "f0"}}, from: timeBase + hotRows/2*timeStep, groupBy: blockSpan / 4},
	}
	for i := 0; len(out) < 16; i++ {
		out = append(out, &stmt{
			class: "quiet", meas: fmt.Sprintf("quiet_%d", i%mixedQuiet),
			aggs: one("mean", fieldNames[i/mixedQuiet]), groupBy: timeStep,
		})
	}
	return out
}

func (mixedRW) round(ctx context.Context, rc *roundCtx) (*roundStats, error) {
	st := &roundStats{}
	nBatches := rc.scaled(mixedBatches, 4)
	preRows := rc.scaled(mixedPreloadRows, 2*mixedBatchRows) / mixedBatchRows * mixedBatchRows

	// Inputs first, so the reference is complete — and read-only — before
	// the reader starts checking against it.
	ref := &refStore{}
	hotRef := ref.newSeries("hot", "h0", preRows+nBatches*mixedBatchRows)
	hotGen := newSeriesGen(newRNG(rc.seed, 0).next(), hotRef, 0, 1)
	gen := func(g *seriesGen, meas string, rows, per int) [][]tsdb.Point {
		var out [][]tsdb.Point
		for done := 0; done < rows; done += per {
			buf := newPointBuf(per, meas, "h0")
			g.fill(buf, rc.digest)
			out = append(out, buf)
		}
		return out
	}
	preload := gen(hotGen, "hot", preRows, mixedBatchRows)
	for i := 0; i < mixedQuiet; i++ {
		meas := fmt.Sprintf("quiet_%d", i)
		g := newSeriesGen(newRNG(rc.seed, uint64(1+i)).next(), ref.newSeries(meas, "h0", preRows), 0, 1)
		preload = append(preload, gen(g, meas, preRows, mixedBatchRows)...)
	}
	writes := gen(hotGen, "hot", nBatches*mixedBatchRows, mixedBatchRows)
	stmts := mixedStatements(int64(preRows))
	texts := make([]string, len(stmts))
	for i, q := range stmts {
		texts[i] = q.String()
		rc.digest.str(texts[i])
	}

	// Set-up: durable store, server, two connections, preload, and one
	// pass of the panel so the quiescent half is cached.
	t0 := time.Now()
	db, err := tsdb.Open(rc.dir, fsyncPolicy)
	if err != nil {
		return nil, err
	}
	defer db.Close() // no-op once durableTail has crashed it
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var clientIn, serverIn *introspect.Introspector
	if rc.hooks {
		clientIn = introspect.New(introspect.WithProcess("pmovebench"), introspect.WithSpanCapacity(1<<17))
		serverIn = introspect.New(introspect.WithProcess("tsdb-server"), introspect.WithSpanCapacity(1<<17))
		srv.SetTracing(serverIn)
	}
	dial := func() (*tsdb.Client, error) {
		c, err := tsdb.Dial(addr)
		if err == nil && rc.hooks {
			c.Transport().SetIntrospection(clientIn, "tsdb")
		}
		return c, err
	}
	wc, err := dial()
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	rcl, err := dial()
	if err != nil {
		return nil, err
	}
	defer rcl.Close()
	for _, batch := range preload {
		if err := db.WriteBatchContext(ctx, batch); err != nil {
			return nil, err
		}
	}
	for _, text := range texts {
		if _, err := rcl.QueryContext(ctx, text); err != nil {
			return nil, err
		}
	}
	st.setupS = time.Since(t0).Seconds()
	heap0 := heapInUse()

	// Timed section. sent/acked bracket what a reply may contain: every
	// batch acked before the query was sent, none the writer had not yet
	// sent when the reply arrived.
	var sent, acked atomic.Int64
	var wErr error
	var wg sync.WaitGroup
	done := make(chan struct{})
	start := time.Now()
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for b, batch := range writes {
			sent.Store(int64(b + 1))
			sp := rc.tr.begin("write", int64(b), -1, 0)
			inner := rc.tr.begin("client.write_batch", int64(b), sp, 0)
			t0 := time.Now()
			err := wc.WriteBatchContext(ctx, batch)
			d := time.Since(t0)
			rc.tr.end(inner)
			rc.tr.end(sp)
			if err != nil {
				wErr = err
				return
			}
			acked.Store(int64(b + 1))
			st.writeMs = append(st.writeMs, ms(d))
		}
	}()
	var queryMs []float64
	var queries int64
	go func() { // reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			q, text := stmts[i%len(stmts)], texts[i%len(stmts)]
			lo := acked.Load()
			sp := rc.tr.begin("query", int64(i), -1, 1)
			inner := rc.tr.begin("client.query", int64(i), sp, 1)
			t0 := time.Now()
			res, err := rcl.QueryContext(ctx, text)
			d := time.Since(t0)
			rc.tr.end(inner)
			rc.tr.end(sp)
			hi := sent.Load()
			queries++
			queryMs = append(queryMs, ms(d))
			if err != nil {
				rc.check.fail("%s: %v", text, err)
				continue
			}
			if i%mixedVerifyEvery != 0 && i >= len(stmts) {
				continue
			}
			// A hot result must be the reference at some batch boundary
			// between lo and hi; a quiescent one has a single answer.
			if q.class != "hot" {
				lo, hi = 0, 0
			}
			var derr error
			for k := lo; k <= hi; k++ {
				limit := 0
				if q.class == "hot" {
					limit = preRows + int(k)*mixedBatchRows
				}
				if derr = sameResult(res, ref.eval(q, limit)); derr == nil {
					break
				}
			}
			if derr != nil {
				rc.check.fail("%s (batches %d..%d): %v", text, lo, hi, derr)
			}
		}
	}()
	wg.Wait()
	st.writeWallS = time.Since(start).Seconds()
	if wErr != nil {
		return nil, wErr
	}
	st.queryMs = queryMs
	st.writePoints = int64(nBatches*mixedBatchRows) * nFields
	st.ops, st.opsS = int64(nBatches)+queries, st.writeWallS
	rc.check.op(st.ops)

	rows := ref.rows()
	st.pointsAttempted = rows * nFields
	_, values := db.Stats()
	st.pointsQueryable = int64(values)
	st.residentPoints = st.pointsQueryable
	st.heapBytes = heapInUse() - heap0
	// The inputs were live when heap0 was read; they must still be now.
	runtime.KeepAlive(preload)
	runtime.KeepAlive(writes)
	st.durablePoints = st.pointsAttempted
	st.retries = wc.Stats().Retries + rcl.Stats().Retries
	if rc.hooks {
		st.wireSeconds = wireSeconds(clientIn, serverIn)
		readHooks(serverIn, st)
	}

	fieldOf := map[string]string{"hot": fieldNames[0]}
	for i := 0; i < mixedQuiet; i++ {
		fieldOf[fmt.Sprintf("quiet_%d", i)] = fieldNames[0]
	}
	verify := func(db *tsdb.DB, stage string) error {
		if err := conservation(ctx, rc, db, stage, rows, fieldOf); err != nil {
			return err
		}
		for _, q := range stmts {
			rc.check.op(1)
			res, err := db.ExecuteContext(ctx, tsdb.QueryRequest{Statement: q.String(), SkipCache: true})
			if err != nil {
				rc.check.fail("%s: %s: %v", stage, q, err)
			} else if derr := sameResult(res, ref.eval(q, 0)); derr != nil {
				rc.check.fail("%s: %s: %v", stage, q, derr)
			}
		}
		return nil
	}
	if err := verify(db, "after ingest"); err != nil {
		return nil, err
	}
	wc.Close()
	rcl.Close()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return st, durableTail(ctx, rc, db, st, verify)
}
