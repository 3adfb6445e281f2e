package superdb

import (
	"context"
	"errors"
	"math"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func testKB(t *testing.T, preset string) *kb.KB {
	t.Helper()
	doc, err := topo.NewProber().Probe(topo.MustPreset(preset))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Generate(doc, kb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// seedObservation writes a small series and returns the matching entry.
func seedObservation(t *testing.T, local *tsdb.DB, host, tag string) *kb.Observation {
	t.Helper()
	for i := int64(0); i < 10; i++ {
		if err := local.WriteBatchContext(context.Background(), []tsdb.Point{{
			Measurement: "perfevent_hwcounters_X",
			Tags:        map[string]string{"tag": tag},
			Fields:      map[string]float64{"_cpu0": float64(i), "_cpu1": float64(i * 2)},
			Time:        i * 1e9,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return &kb.Observation{
		ID: "obs:" + tag, Type: "ObservationInterface", Tag: tag, Host: host,
		Command: "spmv",
		Metrics: []kb.MetricRef{{Measurement: "perfevent_hwcounters_X", Fields: []string{"_cpu0", "_cpu1"}}},
	}
}

func TestReportKBAndHosts(t *testing.T) {
	s := New()
	if err := s.ReportKB(testKB(t, topo.PresetSKX)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReportKB(testKB(t, topo.PresetICL)); err != nil {
		t.Fatal(err)
	}
	// Re-reporting is an upsert, not a duplicate.
	if err := s.ReportKB(testKB(t, topo.PresetSKX)); err != nil {
		t.Fatal(err)
	}
	hosts := s.Hosts()
	if len(hosts) != 2 || hosts[0] != "icl" || hosts[1] != "skx" {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestReportObservationTS(t *testing.T) {
	s := New()
	local := tsdb.New()
	obs := seedObservation(t, local, "skx", "t-ts")
	if err := s.ReportObservation(context.Background(), obs, local, ModeTS); err != nil {
		t.Fatal(err)
	}
	// Raw rows are in the global TSDB, tagged with the host.
	res, err := s.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_cpu0" FROM "perfevent_hwcounters_X" WHERE tag="t-ts" AND host="skx"`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("global rows = %d, want 10", len(res.Rows))
	}
	docs := s.Observations("skx")
	if len(docs) != 1 {
		t.Fatalf("observation docs = %d", len(docs))
	}
	if docs[0]["kind"] != string(ontology.EntryTSObservation) {
		t.Errorf("kind = %v", docs[0]["kind"])
	}
}

func TestReportObservationAGG(t *testing.T) {
	s := New()
	local := tsdb.New()
	obs := seedObservation(t, local, "icl", "t-agg")
	if err := s.ReportObservation(context.Background(), obs, local, ModeAGG); err != nil {
		t.Fatal(err)
	}
	// No raw rows shipped.
	res, _ := s.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_cpu0" FROM "perfevent_hwcounters_X"`})
	if len(res.Rows) != 0 {
		t.Error("AGG mode should not ship raw rows")
	}
	docs := s.Observations("icl")
	if len(docs) != 1 || docs[0]["kind"] != string(ontology.EntryAGGObservation) {
		t.Fatalf("docs = %+v", docs)
	}
	rows, err := s.ExportML()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Aggs) != 2 {
		t.Fatalf("ML export: %+v", rows)
	}
	// _cpu0 carries 0..9: mean 4.5, min 0, max 9, p50 4.5.
	var cpu0 *Aggregates
	for i := range rows[0].Aggs {
		if rows[0].Aggs[i].Field == "_cpu0" {
			cpu0 = &rows[0].Aggs[i]
		}
	}
	if cpu0 == nil {
		t.Fatal("_cpu0 aggregate missing")
	}
	if cpu0.Count != 10 || cpu0.Min != 0 || cpu0.Max != 9 || math.Abs(cpu0.Mean-4.5) > 1e-9 {
		t.Errorf("aggregates: %+v", cpu0)
	}
}

func TestReportObservationBadMode(t *testing.T) {
	s := New()
	local := tsdb.New()
	obs := seedObservation(t, local, "h", "t")
	if err := s.ReportObservation(context.Background(), obs, local, ReportMode("raw")); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestReportObservationCanceled: an upload under a cancelled context fails
// with the context's error and writes nothing global, in either mode.
func TestReportObservationCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []ReportMode{ModeTS, ModeAGG} {
		s := New()
		local := tsdb.New()
		obs := seedObservation(t, local, "skx", "t-cancel")
		err := s.ReportObservation(ctx, obs, local, mode)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		if docs := s.Observations(""); len(docs) != 0 {
			t.Errorf("%s: %d observation documents after a cancelled upload", mode, len(docs))
		}
		res, err := s.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT * FROM "perfevent_hwcounters_X"`})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: %d global rows after a cancelled upload", mode, len(res.Rows))
		}
	}
}

func TestTSObservationsExcludedFromML(t *testing.T) {
	s := New()
	local := tsdb.New()
	if err := s.ReportObservation(context.Background(), seedObservation(t, local, "h", "t1"), local, ModeTS); err != nil {
		t.Fatal(err)
	}
	rows, err := s.ExportML()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Error("TS observations should not appear in the ML export")
	}
}

// TestReportObservationAGGStar: a field list holding a star stands for
// every field of the observation's rows and is summarised by the same
// engine query as those fields named, so the exports agree.
func TestReportObservationAGGStar(t *testing.T) {
	export := func(fields []string) []Aggregates {
		t.Helper()
		s := New()
		local := tsdb.New()
		obs := seedObservation(t, local, "skx", "t-star")
		obs.Metrics[0].Fields = fields
		if err := s.ReportObservation(context.Background(), obs, local, ModeAGG); err != nil {
			t.Fatal(err)
		}
		rows, err := s.ExportML()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("ML rows for %v: %+v", fields, rows)
		}
		return rows[0].Aggs
	}
	named := export([]string{"_cpu1", "_cpu0"})
	if len(named) != 2 {
		t.Fatalf("named: %+v", named)
	}
	for _, fields := range [][]string{{"*"}, {"_cpu0", "*"}} {
		star := export(fields)
		if len(star) != len(named) {
			t.Fatalf("%v: %+v, named %+v", fields, star, named)
		}
		for i, n := range named {
			a := star[i]
			if a.Measurement != n.Measurement || a.Field != n.Field || a.Count != n.Count {
				t.Fatalf("%v field %d: %+v, named %+v", fields, i, a, n)
			}
			for _, d := range []float64{a.Min - n.Min, a.Max - n.Max, a.Mean - n.Mean, a.P50 - n.P50} {
				if math.Abs(d) > 1e-9 {
					t.Fatalf("%v field %s: %+v, named %+v", fields, n.Field, a, n)
				}
			}
		}
	}
}

func TestMultiInstanceGlobalView(t *testing.T) {
	// Two instances report; the global store can answer cross-machine
	// queries — the SUPERDB promise of §III-E.
	s := New()
	for _, host := range []string{"skx", "icl"} {
		k := testKB(t, host)
		if err := s.ReportKB(k); err != nil {
			t.Fatal(err)
		}
		local := tsdb.New()
		obs := seedObservation(t, local, host, "tag-"+host)
		if err := s.ReportObservation(context.Background(), obs, local, ModeAGG); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Observations("")); n != 2 {
		t.Errorf("global observations = %d", n)
	}
	rows, _ := s.ExportML()
	if len(rows) != 2 {
		t.Errorf("ML rows = %d", len(rows))
	}
}
