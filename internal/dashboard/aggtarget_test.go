package dashboard

import (
	"context"
	"strings"
	"testing"

	"pmove/internal/tsdb"
)

func seedAggDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db := tsdb.New()
	for i := int64(0); i < 40; i++ {
		if err := db.WriteBatchContext(context.Background(), []tsdb.Point{{
			Measurement: "m1",
			Tags:        map[string]string{"tag": "t"},
			Fields:      map[string]float64{"_cpu0": float64(i % 8)},
			Time:        i * 1000,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestTargetQueryShapes pins Target.Query across the raw and
// aggregated renderings, including the errors the canonical grammar
// surfaces at build time rather than downstream.
func TestTargetQueryShapes(t *testing.T) {
	raw, err := Target{Measurement: "m1", Params: "_cpu0", Tag: "t"}.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Fields) != 1 || raw.Fields[0] != "_cpu0" || len(raw.Aggregates) != 0 {
		t.Fatalf("raw query: %+v", raw)
	}
	star, err := Target{Measurement: "m1"}.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(star.Fields) != 1 || star.Fields[0] != "*" {
		t.Fatalf("star query: %+v", star)
	}
	agg, err := Target{Measurement: "m1", Params: "_cpu0", Tag: "t", Agg: "p99", Window: "5s"}.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Aggregates) != 1 || agg.Aggregates[0].Fn != "p" || agg.Aggregates[0].Pct != 99 {
		t.Fatalf("agg query: %+v", agg)
	}
	if agg.GroupBy != int64(5e9) {
		t.Fatalf("window: %d", agg.GroupBy)
	}
	if _, err := (Target{Measurement: "m1", Params: "f", Window: "5s"}).Query(); err == nil {
		t.Fatal("window without aggregate accepted")
	}
	if _, err := (Target{Measurement: "m1", Params: "f", Agg: "median"}).Query(); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
	if _, err := (Target{Measurement: "m1", Params: "f", Agg: "mean", Window: "fast"}).Query(); err == nil {
		t.Fatal("unparseable window accepted")
	}
}

// TestFetchSeriesAggregated runs an aggregated target end to end: one
// (time, value) pair per GROUP BY window read from the aggregate
// column, and a single whole-range pair when unwindowed.
func TestFetchSeriesAggregated(t *testing.T) {
	db := seedAggDB(t)
	ctx := context.Background()

	tgt := Target{Measurement: "m1", Params: "_cpu0", Tag: "t", Agg: "mean", Window: "10us"}
	ts, vs, err := FetchSeriesContext(ctx, db, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 { // 40 points x 1us spacing / 10us windows
		t.Fatalf("windows: %d (%v)", len(ts), ts)
	}
	for i, v := range vs {
		// Each 10-point window holds a full residue cycle of i%8 plus two
		// repeats; all windows stay within the residue range.
		if v < 0 || v > 7 {
			t.Fatalf("window %d mean %v out of range", i, v)
		}
	}

	whole, wv, err := FetchSeriesContext(ctx, db, Target{Measurement: "m1", Params: "_cpu0", Tag: "t", Agg: "count"})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 1 || wv[0] != 40 {
		t.Fatalf("whole-range count: %v %v", whole, wv)
	}

	if _, _, err := FetchSeriesContext(ctx, db, Target{Measurement: "m1", Params: "f", Window: "1s"}); err == nil {
		t.Fatal("bad target fetched")
	}
}

// TestRenderAggregatedLabel pins the chart label for aggregated
// targets: measurement, aggregate(field) and the window.
func TestRenderAggregatedLabel(t *testing.T) {
	db := seedAggDB(t)
	d := &Dashboard{ID: 1, Title: "agg", Panels: []Panel{{ID: 1, Title: "p", Targets: []Target{
		{Measurement: "m1", Params: "_cpu0", Tag: "t", Agg: "mean", Window: "10us"},
	}}}, Time: TimeRange{From: "now-5m", To: "now"}}
	out, err := RenderDashboardASCII(context.Background(), db, d, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "m1 mean(_cpu0) by 10us") {
		t.Errorf("aggregated label missing:\n%s", out)
	}
}
