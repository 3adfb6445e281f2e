package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// introspectedDaemon builds a daemon with self-observability enabled and
// the given targets attached and probed.
func introspectedDaemon(t *testing.T, presets ...string) *Daemon {
	t.Helper()
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded"}),
		WithIntrospection(),
	)
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

// TestParallelMonitorSelfMetrics runs two targets' Monitor sessions
// concurrently with introspection enabled and checks the aggregated self
// metrics agree exactly with the per-session statistics — the invariant
// that would break under the old unsynchronized sink/generator/KB paths
// (run under -race to prove the locking discipline).
func TestParallelMonitorSelfMetrics(t *testing.T) {
	d := introspectedDaemon(t, topo.PresetSKX, topo.PresetICL)
	hosts := []string{"skx", "icl"}
	results := make([]*MonitorResult, len(hosts))
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h string) {
			defer wg.Done()
			results[i], errs[i] = d.MonitorContext(context.Background(), MonitorRequest{
				Host: h, Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 5,
			})
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("monitor %s: %v", hosts[i], err)
		}
	}

	var expected, inserted, lost uint64
	for _, r := range results {
		expected += r.Stats.Expected
		inserted += r.Stats.Inserted
		lost += r.Stats.Lost
	}
	snap := d.SelfSnapshot()
	if got := snap.CounterValue("telemetry.points.expected"); got != expected {
		t.Errorf("self expected = %d, sessions reported %d", got, expected)
	}
	if got := snap.CounterValue("telemetry.points.inserted"); got != inserted {
		t.Errorf("self inserted = %d, sessions reported %d", got, inserted)
	}
	if got := snap.CounterValue("telemetry.points.lost"); got != lost {
		t.Errorf("self lost = %d, sessions reported %d", got, lost)
	}
	if got := snap.CounterValue("op.monitor.total"); got != 2 {
		t.Errorf("op.monitor.total = %d, want 2", got)
	}
	if got := snap.GaugeValue("ops.inflight"); got != 0 {
		t.Errorf("ops.inflight after completion = %g", got)
	}

	// Dashboard IDs from the shared generator must be distinct.
	if results[0].Dashboard.ID == results[1].Dashboard.ID {
		t.Errorf("both dashboards got ID %d", results[0].Dashboard.ID)
	}

	// Both observations reached each host's KB through the serialized
	// attach path.
	for i, h := range hosts {
		k, err := d.KB(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := k.FindObservation(results[i].Observation.Tag); !ok {
			t.Errorf("observation %s missing from %s KB", results[i].Observation.Tag, h)
		}
	}
}

// TestSelfMetricsQueryable checks the pmove.self.* series land in the
// embedded TSDB after any daemon op and that the meta dashboard renders.
func TestSelfMetricsQueryable(t *testing.T) {
	d := introspectedDaemon(t, topo.PresetICL)
	if _, err := d.MonitorContext(context.Background(), MonitorRequest{
		Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 1,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_value" FROM "pmove_self_op_monitor_total" WHERE "tag" = 'self'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no pmove.self rows after monitor")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Values["_value"] != 1 {
		t.Errorf("op.monitor.total exported %v, want 1", last.Values["_value"])
	}
	// Latency histogram exported with count and buckets.
	res, err = d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_count" FROM "pmove_self_op_monitor_seconds" WHERE "tag" = 'self'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Rows[len(res.Rows)-1].Values["_count"] != 1 {
		t.Errorf("histogram export: %+v", res.Rows)
	}

	dash, err := d.MetaDashboard()
	if err != nil {
		t.Fatal(err)
	}
	if err := dash.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dash.Panels) == 0 {
		t.Error("meta dashboard has no panels")
	}

	// Spans recorded the daemon op with its telemetry children.
	spans := d.SelfSpans()
	var monitorID uint64
	for _, s := range spans {
		if s.Name == "daemon.monitor" {
			monitorID = s.ID
		}
	}
	if monitorID == 0 {
		t.Fatal("no daemon.monitor span recorded")
	}
	childFound := false
	for _, s := range spans {
		if s.Parent == monitorID && s.Name == "telemetry.session" {
			childFound = true
		}
	}
	if !childFound {
		t.Error("telemetry.session span not parented under daemon.monitor")
	}
}

// TestIntrospectionDisabledIsInert checks the legacy constructor leaves
// introspection off: no self series, MetaDashboard refuses.
func TestIntrospectionDisabledIsInert(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	if _, err := d.MonitorContext(context.Background(), MonitorRequest{Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 1}); err != nil {
		t.Fatal(err)
	}
	for _, m := range d.TS.Measurements() {
		if len(m) >= 10 && m[:10] == "pmove_self" {
			t.Errorf("self series %q exported with introspection disabled", m)
		}
	}
	if _, err := d.MetaDashboard(); err == nil {
		t.Error("MetaDashboard succeeded without introspection")
	}
	if snap := d.SelfSnapshot(); len(snap.Metrics) != 0 {
		t.Errorf("snapshot has %d metrics", len(snap.Metrics))
	}
}

// cancelAfterSink cancels a context after n successful writes, then keeps
// writing — a deterministic way to cancel mid-session.
type cancelAfterSink struct {
	db     *tsdb.DB
	cancel context.CancelFunc

	mu   sync.Mutex
	left int
}

func (s *cancelAfterSink) WriteBatchContext(_ context.Context, ps []tsdb.Point) error {
	err := s.db.WriteBatchContext(context.Background(), ps)
	s.mu.Lock()
	s.left--
	if s.left == 0 {
		s.cancel()
	}
	s.mu.Unlock()
	return err
}

// TestMonitorCancellation cancels mid-Monitor and checks the op returns
// promptly with a wrapped context.Canceled, and that the cancellation is
// visible in the self metrics.
func TestMonitorCancellation(t *testing.T) {
	d := introspectedDaemon(t, topo.PresetICL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.SetTelemetrySink(&cancelAfterSink{db: d.TS, cancel: cancel, left: 2})
	_, err := d.MonitorContext(ctx, MonitorRequest{
		Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 100,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-monitor cancel returned %v, want wrapped context.Canceled", err)
	}
	snap := d.SelfSnapshot()
	if got := snap.CounterValue("ops.canceled"); got != 1 {
		t.Errorf("ops.canceled = %d, want 1", got)
	}
	if got := snap.CounterValue("op.monitor.errors"); got != 1 {
		t.Errorf("op.monitor.errors = %d, want 1", got)
	}

	// A pre-cancelled context fails every context-first op up front.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	calls := []struct {
		name string
		call func() error
	}{
		{"probe", func() error { _, err := d.ProbeContext(done, "icl"); return err }},
		{"monitor", func() error {
			_, err := d.MonitorContext(done, MonitorRequest{Host: "icl", FreqHz: 2, DurationSeconds: 1})
			return err
		}},
		{"scan", func() error { _, err := d.ScanContext(done, "icl", "t1"); return err }},
		{"stream", func() error { _, err := d.RunSTREAMContext(done, "icl", 2); return err }},
		{"hpcg", func() error { _, err := d.RunHPCGContext(done, "icl", 2, 1<<10); return err }},
		{"carm", func() error { _, err := d.ConstructCARMContext(done, "icl", topo.ISAAVX512, 2); return err }},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx returned %v", c.name, err)
		}
	}
}

// TestObserveCancellation covers the Scenario B path: the sampling loop
// stops at the next tick after cancellation.
func TestObserveCancellation(t *testing.T) {
	d := introspectedDaemon(t, topo.PresetICL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.SetTelemetrySink(&cancelAfterSink{db: d.TS, cancel: cancel, left: 2})
	spec, err := kernels.Likwid("triad", topo.ISAAVX512, 1<<20, 200000)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.ObserveContext(ctx, ObserveRequest{
		Host: "icl", Workload: spec, Threads: 2, FreqHz: 32,
		SWMetrics: []string{machine.MetricCPUIdle},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-observe cancel returned %v, want wrapped context.Canceled", err)
	}
}

// TestGeneratorConcurrentIDs hammers the shared dashboard generator from
// many goroutines; run under -race this pins the allocID fix.
func TestGeneratorConcurrentIDs(t *testing.T) {
	d := introspectedDaemon(t, topo.PresetICL)
	k, err := d.KB("icl")
	if err != nil {
		t.Fatal(err)
	}
	v, err := k.SubtreeView(k.Root().ID)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	ids := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dash, err := d.Gen.FromView(v)
			if err == nil {
				ids[i] = dash.ID
			}
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, id := range ids {
		if id == 0 {
			t.Fatal("generation failed")
		}
		if seen[id] {
			t.Fatalf("duplicate dashboard ID %d", id)
		}
		seen[id] = true
	}
}
