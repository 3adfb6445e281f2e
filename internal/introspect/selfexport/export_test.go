package selfexport

import (
	"context"
	"strings"
	"testing"

	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// TestExportRoundTrip writes a registry into the embedded TSDB and reads
// every pmove.self.* series back through the query path.
func TestExportRoundTrip(t *testing.T) {
	in := introspect.New()
	reg := in.Metrics()
	reg.Counter("op.monitor.total").Add(3)
	reg.Gauge("op.inflight").Set(1)
	reg.Histogram("op.monitor.seconds", 0.001, 0.1).Observe(0.05)

	db := tsdb.New()
	n, err := Export(context.Background(), in, db, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("exported %d points, want 3", n)
	}

	for _, meas := range db.Measurements() {
		if !strings.HasPrefix(meas, "pmove_self_") {
			t.Errorf("measurement %q outside the pmove.self namespace", meas)
		}
	}

	res, err := db.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_value" FROM "pmove_self_op_monitor_total" WHERE "tag" = 'self'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values["_value"] != 3 {
		t.Fatalf("counter round-trip: %+v", res.Rows)
	}

	res, err = db.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_count" FROM "pmove_self_op_monitor_seconds" WHERE "tag" = 'self'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values["_count"] != 1 {
		t.Fatalf("histogram round-trip: %+v", res.Rows)
	}

	// Bucket fields: 0.05 lands in the 0.1 bucket, not 0.001.
	q := &tsdb.Query{Fields: []string{"_le_0.001", "_le_0.1", "_le_inf"},
		Measurement: "pmove_self_op_monitor_seconds"}
	res, err = db.ExecuteContext(context.Background(), tsdb.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0].Values
	if row["_le_0.001"] != 0 || row["_le_0.1"] != 1 || row["_le_inf"] != 0 {
		t.Fatalf("bucket fields: %+v", row)
	}
}

// TestMetaDashboard validates the generated panel set over a live
// snapshot: every metric gets a panel, histograms expose count and sum.
func TestMetaDashboard(t *testing.T) {
	in := introspect.New()
	reg := in.Metrics()
	reg.Counter("op.probe.total").Inc()
	reg.Histogram("op.probe.seconds").Observe(0.01)
	reg.Gauge("op.inflight").Set(0)

	d, err := MetaDashboard("UUkm1881", in.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Panels) != 3 {
		t.Fatalf("panels = %d, want 3", len(d.Panels))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var histTargets int
	for _, p := range d.Panels {
		if p.Title == "pmove.self.op.probe.seconds" {
			histTargets = len(p.Targets)
			for _, tg := range p.Targets {
				if tg.Measurement != "pmove_self_op_probe_seconds" {
					t.Errorf("histogram target measurement %q", tg.Measurement)
				}
			}
		}
	}
	if histTargets != 2 {
		t.Errorf("histogram panel targets = %d, want _count and _sum", histTargets)
	}

	if _, err := MetaDashboard("uid", introspect.Snapshot{}); err == nil {
		t.Error("empty snapshot produced a dashboard")
	}
}

// TestExportNil checks a disabled (nil) introspector exports nothing.
func TestExportNil(t *testing.T) {
	if n, err := Export(context.Background(), nil, nil, 0); n != 0 || err != nil {
		t.Errorf("nil export wrote %d, err %v", n, err)
	}
}
