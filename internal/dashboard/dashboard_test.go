package dashboard

import (
	"context"
	"strings"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/pmu"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func testKB(t *testing.T, preset string) *kb.KB {
	t.Helper()
	p := topo.NewProber()
	p.EventLister = func(arch string) []string {
		cat, err := pmu.CatalogFor(arch)
		if err != nil {
			return nil
		}
		return cat.Names()
	}
	doc, err := p.Probe(topo.MustPreset(preset))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Generate(doc, kb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestListing1RoundTrip(t *testing.T) {
	// The paper's Listing 1, structurally.
	src := `{
		"id": 1,
		"panels": [
			{"id": 1,
			 "targets": [{
				"datasource": {"type": "influxdb", "uid": "UUkm1881"},
				"measurement": "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value",
				"params": "_cpu0"}]}
		],
		"time": {"from": "now-5m", "to": "now"}
	}`
	d, err := Decode([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Time.From != "now-5m" || d.Time.To != "now" {
		t.Errorf("time range: %+v", d.Time)
	}
	tg := d.Panels[0].Targets[0]
	if tg.Datasource.UID != "UUkm1881" || tg.Params != "_cpu0" {
		t.Errorf("target: %+v", tg)
	}
	// Round trip through Encode.
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Panels[0].Targets[0].Measurement != tg.Measurement {
		t.Error("round trip lost measurement")
	}
}

func TestValidateRejectsBadDashboards(t *testing.T) {
	ds := Datasource{Type: "influxdb", UID: "u"}
	bad := []*Dashboard{
		{Panels: []Panel{{ID: 1, Targets: []Target{{Datasource: ds, Measurement: "m"}}}, {ID: 1, Targets: []Target{{Datasource: ds, Measurement: "m"}}}}},
		{Panels: []Panel{{ID: 1}}},
		{Panels: []Panel{{ID: 1, Targets: []Target{{Datasource: ds}}}}},
		{Panels: []Panel{{ID: 1, Targets: []Target{{Measurement: "m"}}}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dashboard %d accepted", i)
		}
	}
}

func TestFromViewGeneratesPanels(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	g := NewGenerator("UUkm1881")
	lv, err := k.LevelView(ontology.KindThread)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.FromView(lv)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Panels) != 16 {
		t.Errorf("panels = %d, want one per thread", len(d.Panels))
	}
	// Targets carry the KB's DBName/FieldName wiring.
	found := false
	for _, tgt := range d.Panels[0].Targets {
		if tgt.Measurement == "kernel_percpu_cpu_idle" && tgt.Params == "_cpu0" {
			found = true
		}
		if tgt.Datasource.UID != "UUkm1881" || tgt.Datasource.Type != "influxdb" {
			t.Errorf("datasource: %+v", tgt.Datasource)
		}
	}
	if !found {
		t.Error("cpu0 idle target missing from the first thread panel")
	}
	// Panel ids are unique across the dashboard.
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromViewSkipsTelemetrylessNodes(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	g := NewGenerator("u")
	// Caches carry only properties, so a cache-level view has no panels.
	lv, err := k.LevelView(ontology.KindCache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.FromView(lv); err == nil {
		t.Error("view without telemetry should be rejected, not rendered empty")
	}
}

func TestFromViewEmpty(t *testing.T) {
	g := NewGenerator("u")
	if _, err := g.FromView(nil); err == nil {
		t.Error("nil view accepted")
	}
	if _, err := g.FromView(&kb.View{}); err == nil {
		t.Error("empty view accepted")
	}
}

func TestForObservation(t *testing.T) {
	g := NewGenerator("u")
	o := &kb.Observation{
		Tag: "abc", Command: "spmv",
		Metrics: []kb.MetricRef{
			{Measurement: "perfevent_hwcounters_X", Fields: []string{"_cpu0", "_cpu1"}},
		},
	}
	d, err := g.ForObservation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Panels) != 1 || len(d.Panels[0].Targets) != 2 {
		t.Fatalf("dashboard: %+v", d)
	}
	if d.Panels[0].Targets[0].Tag != "abc" {
		t.Error("observation tag not propagated to targets")
	}
	if _, err := g.ForObservation(&kb.Observation{Tag: "x"}); err == nil {
		t.Error("metricless observation accepted")
	}
}

func TestGeneratorUniqueDashboardIDs(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	g := NewGenerator("u")
	v, _ := k.LevelView(ontology.KindThread)
	d1, err := g.FromView(v)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g.FromView(v)
	if err != nil {
		t.Fatal(err)
	}
	if d1.ID == d2.ID {
		t.Error("dashboard ids should be unique per generation")
	}
}

func TestFetchSeriesAndRender(t *testing.T) {
	db := tsdb.New()
	for i := int64(0); i < 20; i++ {
		db.WriteBatchContext(context.Background(), []tsdb.Point{{
			Measurement: "m1",
			Tags:        map[string]string{"tag": "t"},
			Fields:      map[string]float64{"_cpu0": float64(i % 7)},
			Time:        i * 1000,
		}})
	}
	tgt := Target{Datasource: Datasource{Type: "influxdb", UID: "u"}, Measurement: "m1", Params: "_cpu0", Tag: "t"}
	ts, vs, err := FetchSeriesContext(context.Background(), db, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 20 || len(vs) != 20 {
		t.Fatalf("series: %d/%d", len(ts), len(vs))
	}
	d := &Dashboard{ID: 1, Title: "test", Panels: []Panel{{ID: 1, Title: "p", Targets: []Target{tgt}}},
		Time: TimeRange{From: "now-5m", To: "now"}}
	out, err := RenderDashboardASCII(context.Background(), db, d, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "m1 _cpu0") || !strings.Contains(out, "last=") {
		t.Errorf("render output:\n%s", out)
	}
}

// TestFetchSeriesSelectAll: a target without a field reads one field —
// the result's first column — on every call, not whichever field a map
// iteration happens to visit first.
func TestFetchSeriesSelectAll(t *testing.T) {
	db := tsdb.New()
	var pts []tsdb.Point
	for i := int64(0); i < 64; i++ {
		pts = append(pts, tsdb.Point{Measurement: "m", Time: i,
			Fields: map[string]float64{"a": 1, "b": 2, "c": 3}})
	}
	if err := db.WriteBatchContext(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Measurement: "m"}
	for call := 0; call < 20; call++ {
		ts, vs, err := FetchSeriesContext(context.Background(), db, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 64 || len(vs) != 64 {
			t.Fatalf("call %d: %d times, %d values, want 64 each", call, len(ts), len(vs))
		}
		for i, v := range vs {
			if ts[i] != int64(i) || v != 1 {
				t.Fatalf("call %d row %d: (%d, %v), want (%d, 1): field a, the first column", call, i, ts[i], v, i)
			}
		}
	}
}

func TestKindDashboards(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	g := NewGenerator("u")
	ds, err := g.KindDashboards(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds["subtree:icl"]; !ok {
		t.Error("subtree dashboard missing")
	}
	if _, ok := ds["level:icl:thread"]; !ok {
		t.Errorf("thread level dashboard missing; have %d dashboards", len(ds))
	}
	for name, d := range ds {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLibrarySaveLoadList(t *testing.T) {
	dir := t.TempDir()
	lib := Library{Dir: dir}
	d := &Dashboard{
		ID: 1, Title: "shared",
		Panels: []Panel{{ID: 1, Targets: []Target{{
			Datasource: Datasource{Type: "influxdb", UID: "u"}, Measurement: "m", Params: "_cpu0",
		}}}},
		Time: TimeRange{From: "now-5m", To: "now"},
	}
	if err := lib.Save("spmv-study", d); err != nil {
		t.Fatal(err)
	}
	// A second user loads the shared file.
	got, err := lib.Load("spmv-study")
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "shared" || len(got.Panels) != 1 {
		t.Errorf("loaded: %+v", got)
	}
	names, err := lib.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "spmv-study" {
		t.Errorf("names: %v", names)
	}
	// Path traversal rejected; invalid dashboards not saved.
	if err := lib.Save("../evil", d); err == nil {
		t.Error("path separator accepted")
	}
	bad := &Dashboard{Panels: []Panel{{ID: 1}}}
	if err := lib.Save("bad", bad); err == nil {
		t.Error("invalid dashboard saved")
	}
	if _, err := lib.Load("missing"); err == nil {
		t.Error("missing dashboard loaded")
	}
	// Empty library directory lists nothing.
	empty := Library{Dir: dir + "/nothere"}
	if names, err := empty.List(); err != nil || len(names) != 0 {
		t.Errorf("empty list: %v %v", names, err)
	}
}
