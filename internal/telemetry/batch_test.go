package telemetry

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pmove/internal/tsdb"
)

// tickSamples builds one report of several measurements, the shape one
// monitoring tick produces.
func tickSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Metric: fmt.Sprintf("kernel.metric%d", i),
			Values: map[string]float64{"_cpu0": float64(i), "_cpu1": float64(i) * 2},
		}
	}
	return out
}

// splitSink forwards a batch one point per call: the per-point shipment
// the batched path is held equivalent to.
type splitSink struct{ next tsdb.BatchWriter }

func (s splitSink) WriteBatchContext(ctx context.Context, ps []tsdb.Point) error {
	for i := range ps {
		if err := s.next.WriteBatchContext(ctx, ps[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// TestOfferBatchedPerPointEquivalence: shipping a tick as one batch must
// be accounting-identical to shipping it point by point — the same
// counters and the same stored rows for the same offered load — through
// a healthy session and through a degraded outage whose backlog overflows
// the journal and is then replayed. Only the wire/WAL granularity differs.
func TestOfferBatchedPerPointEquivalence(t *testing.T) {
	run := func(split, outage bool) (*Collector, *tsdb.DB) {
		db := tsdb.New()
		cfg := DefaultPipeline()
		cfg.StallProb = 0
		cfg.Degraded = outage
		cfg.JournalCap = 12 // under the 3-tick × 5-point outage backlog
		col := NewCollector(nil, cfg)
		sw := &switchSink{db: db}
		col.Sink = sw
		if split {
			col.Sink = splitSink{next: sw}
		}
		for tick := 0; tick < 10; tick++ {
			sw.down = outage && tick >= 3 && tick < 6
			if err := col.OfferContext(context.Background(), float64(tick)*0.1, tickSamples(5), "t", tick%3 == 2); err != nil {
				t.Fatal(err)
			}
		}
		if left := col.ReplayContext(context.Background()); left != 0 {
			t.Fatalf("split=%v outage=%v: %d points still journalled", split, outage, left)
		}
		return col, db
	}
	for _, outage := range []bool{false, true} {
		b, bdb := run(false, outage)
		s, sdb := run(true, outage)
		counters := func(c *Collector) [7]uint64 {
			return [7]uint64{c.Expected, c.Inserted, c.Lost, c.Zeros, c.Spilled, c.Replayed, c.SpillDropped}
		}
		if counters(b) != counters(s) {
			t.Fatalf("outage=%v: accounting diverged (E I L Z Sp Rp Dr): batched %v vs per-point %v",
				outage, counters(b), counters(s))
		}
		if outage && (b.Replayed == 0 || b.SpillDropped == 0) {
			t.Fatalf("outage run replayed %d, evicted %d: the degraded path was not exercised", b.Replayed, b.SpillDropped)
		}
		if !reflect.DeepEqual(bdb.Measurements(), sdb.Measurements()) {
			t.Fatalf("outage=%v: measurements diverged: %v vs %v", outage, bdb.Measurements(), sdb.Measurements())
		}
		for _, m := range bdb.Measurements() {
			req := tsdb.QueryRequest{Query: &tsdb.Query{Fields: []string{"*"}, Measurement: m}}
			br, err := bdb.ExecuteContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sdb.ExecuteContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br, sr) {
				t.Fatalf("outage=%v: %s rows diverged:\nbatched   %+v\nper-point %+v", outage, m, br.Rows, sr.Rows)
			}
		}
	}
}

// failingBatchSink fails every write — the outage the degraded path
// must spill through.
type failingBatchSink struct{}

func (failingBatchSink) WriteBatchContext(context.Context, []tsdb.Point) error {
	return fmt.Errorf("batch sink down")
}

// TestOfferBatchFailureSpillsWhole: in Degraded mode a failed batch
// spills every point of the tick (whole-tick granularity), and the
// conservation law still balances.
func TestOfferBatchFailureSpillsWhole(t *testing.T) {
	cfg := DefaultPipeline()
	cfg.StallProb = 0
	cfg.Degraded = true
	col := NewCollector(nil, cfg)
	col.Sink = failingBatchSink{}
	if err := col.OfferContext(context.Background(), 0, tickSamples(4), "t", false); err != nil {
		t.Fatal(err)
	}
	if col.Inserted != 0 {
		t.Fatalf("failed batch reported %d inserted", col.Inserted)
	}
	if col.Spilled != col.Expected || col.PendingSpillFields() != col.Expected {
		t.Fatalf("spilled %d / pending %d, want all %d expected points",
			col.Spilled, col.PendingSpillFields(), col.Expected)
	}
	if got := col.Inserted + col.Lost + col.SpillDropped + col.PendingSpillFields(); got != col.Expected {
		t.Fatalf("conservation violated: %d != expected %d", got, col.Expected)
	}
	// Non-degraded: the same failure aborts the offer with an error.
	strict := NewCollector(nil, func() PipelineConfig { c := DefaultPipeline(); c.StallProb = 0; return c }())
	strict.Sink = failingBatchSink{}
	if err := strict.OfferContext(context.Background(), 0, tickSamples(4), "t", false); err == nil {
		t.Fatal("non-degraded batch failure did not abort")
	}
}

// TestOfferLeavesSamplesAsOffered: a point's fields are its sample's map,
// not a copy, so the collector must never write one. A plain tick stores
// the values offered, a tick spilled in an outage replays them, a
// zero-batch tick stores zeros from a map of its own, and no tick leaves
// a sample other than it was offered.
func TestOfferLeavesSamplesAsOffered(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultPipeline()
	cfg.StallProb = 0
	cfg.Degraded = true
	col := NewCollector(nil, cfg)
	sw := &switchSink{db: tsdb.New()}
	col.Sink = sw
	offered := make([][]Sample, 3)
	for tick := range offered {
		ss := make([]Sample, 5)
		for i := range ss {
			ss[i] = Sample{Metric: fmt.Sprintf("kernel.metric%d", i), Values: map[string]float64{}}
			for c := 0; c < 4; c++ {
				ss[i].Values[fmt.Sprintf("_cpu%d", c)] = float64(100*tick + 10*i + c + 1)
			}
		}
		if p := ToPoint(ss[0], "t", 0); reflect.ValueOf(p.Fields).Pointer() != reflect.ValueOf(ss[0].Values).Pointer() {
			t.Fatal("ToPoint copied the sample's map")
		}
		before := fmt.Sprint(ss) // fmt prints a map in key order
		sw.down = tick == 1
		if err := col.OfferContext(ctx, float64(tick), ss, "t", tick == 2); err != nil {
			t.Fatal(err)
		}
		if after := fmt.Sprint(ss); after != before {
			t.Fatalf("tick %d: offering wrote its samples:\n%s\nwas\n%s", tick, after, before)
		}
		offered[tick] = ss
	}
	if left := col.ReplayContext(ctx); left != 0 || col.Spilled != 20 || col.Replayed != 20 || col.Zeros != 20 {
		t.Fatalf("%d points journalled, %d spilled, %d replayed, %d zeros; want 0, 20, 20, 20", left, col.Spilled, col.Replayed, col.Zeros)
	}
	for i, s := range offered[0] {
		res, err := sw.db.ExecuteContext(ctx, tsdb.QueryRequest{Query: &tsdb.Query{Measurement: tsdb.MeasurementName(s.Metric), Fields: []string{"*"}}})
		if err != nil || len(res.Rows) != len(offered) {
			t.Fatalf("%s: %v, %d rows; want %d", s.Metric, err, len(res.Rows), len(offered))
		}
		for tick, row := range res.Rows {
			want := offered[tick][i].Values
			if tick == 2 {
				want = map[string]float64{"_cpu0": 0, "_cpu1": 0, "_cpu2": 0, "_cpu3": 0}
			}
			if row.Time != int64(tick)*1e9 || !reflect.DeepEqual(row.Values, want) {
				t.Fatalf("%s, tick %d: stored %d %v, want %v", s.Metric, tick, row.Time, row.Values, want)
			}
		}
	}
}
