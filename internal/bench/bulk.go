package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// bulkIngest is the embedded durable write path and nothing else: two
// writers on two measurements push 256-row × 8-field batches through
// DB.WriteBatchContext (10 % of rows out of order within the head, 1 %
// duplicate timestamps), then the store is crashed, replayed, compacted
// and reloaded, and a verification panel is checked against the
// reference on every state. Line-protocol encode, WAL append+fsync, head
// insert, seal, snapshot and recovery do all the work; wire, telemetry
// and query do none (the verification panel is not timed).
type bulkIngest struct{}

const (
	bulkWriters       = 2
	bulkBatchRows     = 256
	bulkBatches       = 60 // per writer, timed
	bulkWarmupBatches = 4  // per writer, in set-up
	bulkOOOPct        = 10
	bulkDupPct        = 1
)

func (bulkIngest) round(ctx context.Context, rc *roundCtx) (*roundStats, error) {
	st := &roundStats{}
	batches := rc.scaled(bulkBatches, 2)
	warm := rc.scaled(bulkWarmupBatches, 1)

	ref := &refStore{}
	type writer struct {
		meas string
		src  *batchSource
		lat  []float64
	}
	writers := make([]*writer, bulkWriters)
	for i := range writers {
		meas := fmt.Sprintf("bulk_%c", 'a'+i)
		writers[i] = &writer{meas: meas, src: newBatchSource(newRNG(rc.seed, uint64(i)).next(),
			ref.newSeries(meas, "h0", (batches+warm)*bulkBatchRows), meas, "h0", bulkBatchRows, bulkOOOPct, bulkDupPct)}
	}
	// With two writers the digest would depend on their interleaving, so
	// each hashes its own stream and the sums are combined in order.
	digests := make([]*opDigest, bulkWriters)
	if rc.digest != nil {
		for i := range digests {
			digests[i] = newOpDigest()
		}
	}

	// run drives every writer through n batches concurrently and returns
	// the wall time from the common start to the last ack.
	var db *tsdb.DB
	run := func(n int, record bool) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, len(writers))
		start := time.Now()
		for wi, w := range writers {
			wg.Add(1)
			go func(wi int, w *writer) {
				defer wg.Done()
				for b := 0; b < n; b++ {
					batch := w.src.next(digests[wi])
					sp := rc.tr.begin("tsdb.write_batch", int64(b), -1, wi)
					t0 := time.Now()
					err := db.WriteBatchContext(ctx, batch)
					d := time.Since(t0)
					rc.tr.end(sp)
					if err != nil {
						errs[wi] = err
						return
					}
					if record {
						w.lat = append(w.lat, ms(d))
					}
				}
			}(wi, w)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return wall, nil
	}

	// Set-up: open the store and push a few batches so the series, their
	// columns and the WAL file exist before timing starts.
	t0 := time.Now()
	var err error
	if db, err = tsdb.Open(rc.dir, fsyncPolicy); err != nil {
		return nil, err
	}
	defer db.Close() // no-op once durableTail has crashed it
	var in *introspect.Introspector
	if rc.hooks {
		in = introspect.New()
		db.SetIntrospection(in)
	}
	if _, err := run(warm, false); err != nil {
		return nil, err
	}
	st.setupS = time.Since(t0).Seconds()
	heap0 := heapInUse()

	wall, err := run(batches, true)
	if err != nil {
		return nil, err
	}
	st.writeWallS = wall.Seconds()
	st.writePoints = int64(bulkWriters*batches*bulkBatchRows) * nFields
	st.ops, st.opsS = int64(bulkWriters*batches), st.writeWallS
	for _, w := range writers {
		st.writeMs = append(st.writeMs, w.lat...)
	}
	rc.check.op(int64(bulkWriters * (batches + warm)))
	for _, d := range digests {
		rc.digest.str(d.sum())
	}

	rows := ref.rows()
	st.pointsAttempted = rows * nFields
	_, values := db.Stats()
	st.pointsQueryable = int64(values)
	st.residentPoints = st.pointsQueryable
	st.heapBytes = heapInUse() - heap0
	st.durablePoints = st.pointsAttempted
	if rc.hooks {
		readHooks(in, st)
	}

	fieldOf := map[string]string{}
	var panel []*stmt
	for _, w := range writers {
		fieldOf[w.meas] = fieldNames[0]
		panel = append(panel, verifyPanel(w.meas, "h0", w.src.gen.row)...)
	}
	verify := func(db *tsdb.DB, stage string) error {
		if err := conservation(ctx, rc, db, stage, rows, fieldOf); err != nil {
			return err
		}
		for _, q := range panel {
			text := q.String()
			rc.digest.str(text)
			rc.check.op(1)
			res, err := db.ExecuteContext(ctx, tsdb.QueryRequest{Statement: text})
			if err != nil {
				rc.check.fail("%s: %s: %v", stage, text, err)
				continue
			}
			if derr := sameResult(res, ref.eval(q, 0)); derr != nil {
				rc.check.fail("%s: %s: %v", stage, text, derr)
			}
		}
		return nil
	}
	if err := verify(db, "after ingest"); err != nil {
		return nil, err
	}
	if err := durableTail(ctx, rc, db, st, verify); err != nil {
		return nil, err
	}
	return st, nil
}
