package core

import (
	"context"
	"strings"
	"testing"

	"pmove/internal/abst"
	"pmove/internal/dashboard"
	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/ontology"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func testDaemon(t *testing.T, presets ...string) *Daemon {
	t.Helper()
	d, err := NewWith(WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded", GrafanaToken: "tok"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets {
		sys := topo.MustPreset(p)
		if _, err := d.AttachTarget(sys, machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProbeContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestEnvFromOS(t *testing.T) {
	t.Setenv("PMOVE_INFLUX_ADDR", "10.0.0.1:8086")
	t.Setenv("PMOVE_MONGO_ADDR", "")
	env := EnvFromOS()
	if env.InfluxAddr != "10.0.0.1:8086" {
		t.Errorf("influx = %q", env.InfluxAddr)
	}
	if env.MongoAddr != "embedded" {
		t.Errorf("mongo default = %q", env.MongoAddr)
	}
}

func TestAttachAndProbe(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	if got := d.Hosts(); len(got) != 1 || got[0] != "icl" {
		t.Errorf("hosts = %v", got)
	}
	// Duplicate attach rejected.
	if _, err := d.AttachTarget(topo.MustPreset(topo.PresetICL), machine.Config{}, telemetry.DefaultPipeline()); err == nil {
		t.Error("duplicate attach accepted")
	}
	// KB generated and persisted.
	k, err := d.KB("icl")
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() == 0 {
		t.Error("empty KB")
	}
	loaded, err := kb.Load(d.Docs, "icl")
	if err != nil {
		t.Fatalf("KB not persisted to the document DB: %v", err)
	}
	if loaded.Len() != k.Len() {
		t.Error("persisted KB differs")
	}
	// Config propagated into the KB (step 0).
	if k.Config.GrafanaToken != "tok" {
		t.Error("env config not embedded in KB")
	}
	if _, err := d.KB("ghost"); err == nil {
		t.Error("unprobed host returned a KB")
	}
	if _, err := d.Target("ghost"); err == nil {
		t.Error("unknown target returned")
	}
}

func TestMonitorScenarioA(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	res, err := d.MonitorContext(context.Background(), MonitorRequest{Host: "icl", Metrics: []string{machine.MetricCPUIdle, machine.MetricNUMAAllocHit}, FreqHz: 2, DurationSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Ticks != 10 {
		t.Errorf("ticks = %d", res.Stats.Ticks)
	}
	if res.Dashboard == nil || len(res.Dashboard.Panels) != 2 {
		t.Errorf("dashboard: %+v", res.Dashboard)
	}
	// The observation is attached to the KB with its metric refs.
	k, _ := d.KB("icl")
	obs, ok := k.FindObservation(res.Observation.Tag)
	if !ok {
		t.Fatal("observation not attached")
	}
	if len(obs.Metrics) != 2 {
		t.Errorf("metric refs: %+v", obs.Metrics)
	}
	// Data landed in the TSDB under the observation tag.
	q := `SELECT "_cpu0" FROM "kernel_percpu_cpu_idle" WHERE tag="` + obs.Tag + `"`
	r, err := d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Error("no telemetry rows stored")
	}
	// Default metric set derived from the KB when none are given.
	res2, err := d.MonitorContext(context.Background(), MonitorRequest{Host: "icl", Metrics: nil, FreqHz: 2, DurationSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.NMetrics == 0 {
		t.Error("default SW metric set empty")
	}
}

func TestObserveScenarioB(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	spec, err := kernels.Likwid("triad", topo.ISAAVX512, 1<<20, 2000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ObserveContext(context.Background(), ObserveRequest{
		Host:     "csl",
		Workload: spec,
		Command:  "likwid-bench -t triad",
		Threads:  8,
		Pin:      topo.PinBalanced,
		GenericEvents: []string{
			abst.GenericScalarDouble, abst.GenericAVX512Double,
			abst.GenericTotalMemOps, abst.GenericEnergy,
		},
		SWMetrics: []string{machine.MetricNUMAAllocHit},
		FreqHz:    32,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := res.Observation
	if obs.PinStrategy != string(topo.PinBalanced) || len(obs.Affinity) != 8 {
		t.Errorf("affinity metadata: %+v", obs)
	}
	if obs.EndNanos <= obs.StartNanos {
		t.Error("observation window empty")
	}
	if res.Execution.Duration <= 0 {
		t.Error("no execution")
	}
	// Auto-generated queries follow Listing 3.
	if len(res.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	for _, q := range res.Queries {
		if !strings.Contains(q, `WHERE tag="`+obs.Tag+`"`) {
			t.Errorf("query missing tag filter: %s", q)
		}
		if _, err := d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: q}); err != nil {
			t.Errorf("generated query does not parse: %s: %v", q, err)
		}
	}
	// The RAPL metric was resolved through the abstraction layer and
	// sampled per socket.
	found := false
	for _, m := range obs.Metrics {
		if m.Measurement == "perfevent_hwcounters_RAPL_ENERGY_PKG" {
			found = true
			if len(m.Fields) != 1 || m.Fields[0] != "_socket0" {
				t.Errorf("RAPL fields: %v", m.Fields)
			}
		}
	}
	if !found {
		t.Error("RAPL metric missing from observation")
	}
	// KB entry persisted.
	k, _ := d.KB("csl")
	if _, ok := k.FindObservation(obs.Tag); !ok {
		t.Error("observation not in KB")
	}
}

func TestObserveValidation(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	spec, _ := kernels.Likwid("sum", topo.ISAScalar, 1<<20, 1)
	base := ObserveRequest{Host: "icl", Workload: spec, Threads: 2, FreqHz: 8}
	bad := base
	bad.FreqHz = 0
	if _, err := d.ObserveContext(context.Background(), bad); err == nil {
		t.Error("zero frequency accepted")
	}
	bad = base
	bad.Threads = 0
	if _, err := d.ObserveContext(context.Background(), bad); err == nil {
		t.Error("zero threads accepted")
	}
	bad = base
	bad.HWEvents = []string{"NO_SUCH_EVENT"}
	if _, err := d.ObserveContext(context.Background(), bad); err == nil {
		t.Error("unknown hardware event accepted")
	}
	bad = base
	bad.GenericEvents = []string{"NO_SUCH_GENERIC"}
	if _, err := d.ObserveContext(context.Background(), bad); err == nil {
		t.Error("unknown generic event accepted")
	}
	bad = base
	bad.Host = "ghost"
	if _, err := d.ObserveContext(context.Background(), bad); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestRunScript(t *testing.T) {
	spec, _ := kernels.Likwid("sum", topo.ISAScalar, 1<<20, 1)
	req := ObserveRequest{Command: "./spmv", Args: []string{"-m", "x.mtx"}, Workload: spec, FreqHz: 8}
	s := RunScript(req, []int{0, 2, 4})
	if !strings.Contains(s, "taskset -c 0,2,4 ./spmv -m x.mtx") {
		t.Errorf("script:\n%s", s)
	}
	if !strings.Contains(s, "start-sampling") || !strings.Contains(s, "stop-sampling") {
		t.Error("sampling control missing")
	}
}

func TestBenchmarkInterfaces(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	stream, err := d.RunSTREAMContext(context.Background(), "csl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Results) != 4 {
		t.Errorf("STREAM results: %d", len(stream.Results))
	}
	if stream.Compiler != "icc" {
		t.Errorf("CSL has icc in its environment; compiler = %q", stream.Compiler)
	}
	if r, ok := stream.Result("bandwidth", map[string]string{"kernel": "stream_triad"}); !ok || r.Value <= 0 {
		t.Error("triad bandwidth missing")
	}
	hpcg, err := d.RunHPCGContext(context.Background(), "csl", 8, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(hpcg.Results) != 1 || hpcg.Results[0].Metric != "gflops" {
		t.Errorf("HPCG results: %+v", hpcg.Results)
	}
	// Both are in the KB.
	k, _ := d.KB("csl")
	if len(k.Benchmarks("stream")) != 1 || len(k.Benchmarks("hpcg")) != 1 {
		t.Error("benchmark entries not attached")
	}
}

func TestConstructCARMUsesKBCache(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	m1, err := d.ConstructCARMContext(context.Background(), "csl", topo.ISAAVX512, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := d.KB("csl")
	n1 := len(k.Benchmarks("carm"))
	if n1 != 1 {
		t.Fatalf("carm benchmark entries: %d", n1)
	}
	// Second construction is served from the KB cache: no new entry, and
	// identical roofs.
	m2, err := d.ConstructCARMContext(context.Background(), "csl", topo.ISAAVX512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Benchmarks("carm")) != 1 {
		t.Error("cache miss: a second benchmark entry was attached")
	}
	if m1.PeakGFLOPS != m2.PeakGFLOPS {
		t.Error("cached model differs")
	}
	// A different thread count re-benchmarks.
	if _, err := d.ConstructCARMContext(context.Background(), "csl", topo.ISAAVX512, 4); err != nil {
		t.Fatal(err)
	}
	if len(k.Benchmarks("carm")) != 2 {
		t.Error("distinct config should create a new entry")
	}
}

func TestLiveCARMPhases(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	model, err := d.ConstructCARMContext(context.Background(), "csl", topo.ISAAVX512, 4)
	if err != nil {
		t.Fatal(err)
	}
	ddot, err := kernels.Likwid("ddot", topo.ISAAVX512, 16<<10, 400000)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := kernels.Likwid("peakflops", topo.ISAAVX512, 4<<10, 800000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.LiveCARMContext(context.Background(), LiveCARMRequest{Host: "csl", Model: model, Phases: []LiveCARMPhase{
		{Label: "ddot", Workload: ddot},
		{Label: "peakflops", Workload: peak},
	}, Threads: 4, FreqHz: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 2 {
		t.Fatalf("summaries: %+v", res.Summaries)
	}
	var ddotAI, peakAI float64
	for _, s := range res.Summaries {
		switch s.Label {
		case "ddot":
			ddotAI = s.MedianAI
		case "peakflops":
			peakAI = s.MedianAI
		}
	}
	// Fig 9: ddot AI 0.125, peakflops AI 2 — within a tolerance band.
	if ddotAI < 0.08 || ddotAI > 0.2 {
		t.Errorf("ddot live AI = %f, want ~0.125", ddotAI)
	}
	if peakAI < 1.3 || peakAI > 3 {
		t.Errorf("peakflops live AI = %f, want ~2", peakAI)
	}
	// Validation.
	if _, err := d.LiveCARMContext(context.Background(), LiveCARMRequest{Host: "csl", Model: model, Phases: nil, Threads: 4, FreqHz: 50}); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, err := d.LiveCARMContext(context.Background(), LiveCARMRequest{Host: "csl", Model: model, Phases: []LiveCARMPhase{{Label: "x", Workload: ddot}}, Threads: 4, FreqHz: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestObserveGPUKernel(t *testing.T) {
	d, err := NewWith(WithEnv(EnvFromOS()))
	if err != nil {
		t.Fatal(err)
	}
	sys := topo.WithGPU(topo.MustPreset(topo.PresetICL))
	if _, err := d.AttachTarget(sys, machine.Config{Seed: 1}, telemetry.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProbeContext(context.Background(), "icl"); err != nil {
		t.Fatal(err)
	}
	sample, err := d.ObserveGPUKernelContext(context.Background(), "icl", 0, "vecadd", map[string]float64{
		"gpu__compute_memory_access_throughput": 812.5,
		"sm__throughput":                        61.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sample.Values["_gpu0"] == 0 {
		t.Error("no GPU metrics recorded")
	}
	// The ncu output landed in the TSDB and the KB got an observation.
	res, err := d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_gpu0" FROM "ncu_gpu__compute_memory_access_throughput"`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values["_gpu0"] != 812.5 {
		t.Errorf("ncu rows: %+v", res.Rows)
	}
	k, _ := d.KB("icl")
	found := false
	for _, o := range k.Observations() {
		if strings.Contains(o.Command, "ncu") && strings.Contains(o.Command, "vecadd") {
			found = true
		}
	}
	if !found {
		t.Error("GPU observation not attached")
	}
	// No such GPU.
	if _, err := d.ObserveGPUKernelContext(context.Background(), "icl", 7, "x", nil); err == nil {
		t.Error("unknown GPU accepted")
	}
}

func TestMultiTargetDaemon(t *testing.T) {
	d := testDaemon(t, topo.PresetSKX, topo.PresetICL)
	if len(d.Hosts()) != 2 {
		t.Fatalf("hosts: %v", d.Hosts())
	}
	// Cross-machine level view from two probed KBs (Fig 2d).
	a, _ := d.KB("skx")
	b, _ := d.KB("icl")
	v, err := kb.CrossLevelView(ontology.KindSocket, a, b)
	if err != nil {
		t.Fatal(err)
	}
	dash, err := d.Gen.FromView(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(dash.Panels) != 3 {
		t.Errorf("cross-machine panels: %d", len(dash.Panels))
	}
}

// TestDashboardTargetsMatchStoredMeasurements pins the naming contract
// across the stack: the DBNames the KB encodes (and the dashboards
// reference) must be exactly the measurements the telemetry pipeline
// writes. A mismatch here would render every auto-generated dashboard
// empty.
func TestDashboardTargetsMatchStoredMeasurements(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	spec, err := kernels.Likwid("ddot", topo.ISAAVX512, 1<<20, 2000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ObserveContext(context.Background(), ObserveRequest{
		Host: "icl", Workload: spec, Threads: 2,
		HWEvents: []string{"FP_ARITH:512B_PACKED_DOUBLE", "MEM_INST_RETIRED:ALL_LOADS"},
		FreqHz:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for _, m := range d.TS.Measurements() {
		stored[m] = true
	}
	// 1. The observation's metric refs point at stored measurements.
	for _, m := range res.Observation.Metrics {
		if !stored[m.Measurement] {
			t.Errorf("observation references %q but the TSDB stores %v", m.Measurement, d.TS.Measurements())
		}
	}
	// 2. The KB's HWTelemetry DBNames for the sampled events match too.
	k, _ := d.KB("icl")
	th := k.NodesOfKind(ontology.KindThread)[0]
	for _, tel := range th.Interface.Telemetries(ontology.ClassHWTelemetry) {
		if tel.SamplerName == "FP_ARITH:512B_PACKED_DOUBLE" || tel.SamplerName == "MEM_INST_RETIRED:ALL_LOADS" {
			if !stored[tel.DBName] {
				t.Errorf("KB DBName %q does not match any stored measurement", tel.DBName)
			}
		}
	}
	// 3. An auto-generated dashboard's targets fetch real data.
	dash, err := d.Gen.ForObservation(res.Observation)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, p := range dash.Panels {
		for _, tgt := range p.Targets {
			_, vs, err := dashboardFetch(d, tgt)
			if err != nil {
				t.Fatal(err)
			}
			got += len(vs)
		}
	}
	if got == 0 {
		t.Fatal("dashboard targets fetched no data")
	}
}

func dashboardFetch(d *Daemon, tgt dashboard.Target) ([]int64, []float64, error) {
	return dashboard.FetchSeries(d.TS, tgt)
}
