package telemetry

import (
	"context"
	"strings"
	"testing"

	"pmove/internal/machine"
	"pmove/internal/pmu"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func newStack(t *testing.T, preset string) (*machine.Machine, *PMCD) {
	t.Helper()
	m, err := machine.New(topo.MustPreset(preset), machine.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m, NewPMCD(m)
}

func TestMetricForEventRoundTrip(t *testing.T) {
	m, _ := newStack(t, topo.PresetICL)
	agent := NewPerfeventAgent(m)
	for _, ev := range []string{"UNHALTED_CORE_CYCLES", "MEM_INST_RETIRED:ALL_LOADS", "FP_ARITH:SCALAR_DOUBLE"} {
		metric := MetricForEvent(ev)
		if !strings.HasPrefix(metric, "perfevent.hwcounters.") {
			t.Errorf("metric %q missing namespace", metric)
		}
		back, ok := agent.EventForMetric(metric)
		if !ok || back != ev {
			t.Errorf("round trip %q -> %q -> %q", ev, metric, back)
		}
	}
	if _, ok := agent.EventForMetric("kernel.all.load"); ok {
		t.Error("non-perfevent metric inverted")
	}
	// The measurement name matches the paper's Listing 1 style: single
	// underscores throughout.
	meas := tsdb.MeasurementName(MetricForEvent("FP_ARITH:SCALAR_SINGLE"))
	if meas != "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE" {
		t.Errorf("measurement = %q, want the Listing 1 form", meas)
	}
}

func TestPMCDRouting(t *testing.T) {
	m, p := newStack(t, topo.PresetICL)
	if err := m.ProgramAll([]string{pmu.IntelCycles}); err != nil {
		t.Fatal(err)
	}
	// Perfevent metric routes to the PMU agent; per-CPU domain size 16.
	s, err := p.Sample(MetricForEvent(pmu.IntelCycles))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 16 {
		t.Errorf("perfevent domain = %d, want 16", len(s.Values))
	}
	// Linux metric routes to pmdalinux.
	s, err = p.Sample(machine.MetricCPUIdle)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 16 {
		t.Errorf("cpu.idle domain = %d", len(s.Values))
	}
	// Proc metric routes to pmdaproc; big instance domain.
	s, err = p.Sample(MetricProcRSS)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) < 100 {
		t.Errorf("proc domain = %d, want the OS process population", len(s.Values))
	}
	if _, err := p.Sample("no.such.metric"); err == nil {
		t.Error("unknown metric routed")
	}
}

func TestRAPLSampleUsesSocketDomain(t *testing.T) {
	m, p := newStack(t, topo.PresetSKX)
	_ = m
	s, err := p.Sample(MetricForEvent(pmu.RAPLEnergyPkg))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 2 {
		t.Errorf("RAPL domain = %v, want 2 sockets", s.Values)
	}
	if _, ok := s.Values["_socket0"]; !ok {
		t.Errorf("RAPL fields: %v", s.Values)
	}
}

func TestSampleUnprogrammedEventFails(t *testing.T) {
	_, p := newStack(t, topo.PresetICL)
	if _, err := p.Sample(MetricForEvent(pmu.IntelLoads)); err == nil {
		t.Error("sampling an unprogrammed event should fail")
	}
}

func TestToPoint(t *testing.T) {
	s := Sample{Metric: "kernel.percpu.cpu.idle", Values: map[string]float64{"_cpu0": 0.5}}
	p := ToPoint(s, "tag1", 123)
	if p.Measurement != "kernel_percpu_cpu_idle" || p.Tags["tag"] != "tag1" || p.Time != 123 {
		t.Errorf("point = %+v", p)
	}
	p2 := ToPoint(s, "", 1)
	if len(p2.Tags) != 0 {
		t.Error("empty tag should not be set")
	}
}

func TestCollectorLossWhenBusy(t *testing.T) {
	db := tsdb.New()
	cfg := DefaultPipeline()
	cfg.InsertBaseSeconds = 1.0 // pathological: each report takes 1s
	cfg.StallProb = 0
	col := NewCollector(db, cfg)
	s := []Sample{{Metric: "m", Values: map[string]float64{"a": 1}}}
	if err := col.OfferContext(context.Background(), 0.0, s, "t", false); err != nil {
		t.Fatal(err)
	}
	if err := col.OfferContext(context.Background(), 0.1, s, "t", false); err != nil { // pipeline still busy
		t.Fatal(err)
	}
	if col.Inserted != 1 || col.Lost != 1 || col.Expected != 2 {
		t.Errorf("inserted=%d lost=%d expected=%d", col.Inserted, col.Lost, col.Expected)
	}
	if err := col.OfferContext(context.Background(), 2.0, s, "t", false); err != nil { // pipeline free again
		t.Fatal(err)
	}
	if col.Inserted != 2 {
		t.Error("free pipeline should accept")
	}
	if col.LossRate() <= 0 || col.LossRate() >= 1 {
		t.Errorf("loss rate %f", col.LossRate())
	}
}

func TestCollectorZeroBatch(t *testing.T) {
	db := tsdb.New()
	col := NewCollector(db, DefaultPipeline())
	s := []Sample{{Metric: "m", Values: map[string]float64{"a": 42, "b": 7}}}
	if err := col.OfferContext(context.Background(), 0, s, "t", true); err != nil {
		t.Fatal(err)
	}
	if col.Zeros != 2 {
		t.Errorf("zeros = %d", col.Zeros)
	}
	total, zeros := db.CountValues("m")
	if total != 2 || zeros != 2 {
		t.Errorf("db: total=%d zeros=%d", total, zeros)
	}
	if col.LossPlusZeroRate() != 1 {
		t.Errorf("L+Z = %f", col.LossPlusZeroRate())
	}
}

func TestZeroBatchProbability(t *testing.T) {
	cfg := DefaultPipeline() // refresh 48ms
	if p := cfg.ZeroBatchProbability(0.5); p != 0 {
		t.Errorf("slow sampling should never batch zeros, got %f", p)
	}
	p32 := cfg.ZeroBatchProbability(1.0 / 32)
	if p32 < 0.2 || p32 > 0.6 {
		t.Errorf("32 Hz zero probability %f out of the Table III band", p32)
	}
	if p := cfg.ZeroBatchProbability(1.0 / 64); p <= p32 {
		t.Error("faster sampling should batch more zeros")
	}
}

func TestSessionValidation(t *testing.T) {
	_, p := newStack(t, topo.PresetICL)
	col := NewCollector(tsdb.New(), DefaultPipeline())
	if _, err := NewSession(p, col, SessionConfig{Metrics: []string{machine.MetricCPUIdle}, FreqHz: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewSession(p, col, SessionConfig{FreqHz: 1}); err == nil {
		t.Error("empty metric list accepted")
	}
	if _, err := NewSession(p, col, SessionConfig{Metrics: []string{"bogus"}, FreqHz: 1}); err == nil {
		t.Error("unroutable metric accepted")
	}
	s, err := NewSession(p, col, SessionConfig{Metrics: []string{machine.MetricCPUIdle}, FreqHz: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err == nil {
		t.Error("run without duration accepted")
	}
}

func TestSessionAdvancesVirtualClockAndWrites(t *testing.T) {
	m, p := newStack(t, topo.PresetICL)
	db := tsdb.New()
	col := NewCollector(db, DefaultPipeline())
	sess, err := NewSession(p, col, SessionConfig{
		Metrics: []string{machine.MetricCPUIdle}, FreqHz: 4, Tag: "sesstest", DurationSeconds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Now() < 5.0 {
		t.Errorf("clock at %f, want >= 5", m.Now())
	}
	if st.Ticks != 20 {
		t.Errorf("ticks = %d, want 20", st.Ticks)
	}
	if st.Expected != 20*16 {
		t.Errorf("expected = %d, want 320", st.Expected)
	}
	res, err := db.ExecuteContext(context.Background(), tsdb.QueryRequest{Statement: `SELECT "_cpu0" FROM "kernel_percpu_cpu_idle" WHERE tag="sesstest"`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows written")
	}
	// Timestamps must be strictly increasing with the tick interval.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Time <= res.Rows[i-1].Time {
			t.Fatal("timestamps not increasing")
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	// The headline Table III behaviour: at 32 Hz the 88-thread skx loses
	// far more data than the 16-thread icl; at 2 Hz neither loses anything
	// and no zeros appear.
	run := func(preset string, freq float64) SessionStats {
		m, p := newStack(t, preset)
		// Five metrics, as in the middle Table III rows: the three
		// never-zero events plus two more core events.
		events := m.Catalog().NeverZeroEvents()
		for _, ev := range m.Catalog().Names() {
			if len(events) >= 5 {
				break
			}
			def, _ := m.Catalog().Lookup(ev)
			dup := false
			for _, e := range events {
				dup = dup || e == ev
			}
			if def.PMU == "core" && !dup {
				events = append(events, ev)
			}
		}
		if err := m.ProgramAll(events); err != nil {
			t.Fatal(err)
		}
		metrics := make([]string, len(events))
		for i, ev := range events {
			metrics[i] = MetricForEvent(ev)
		}
		col := NewCollector(tsdb.New(), DefaultPipeline())
		sess, err := NewSession(p, col, SessionConfig{Metrics: metrics, FreqHz: freq, DurationSeconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	skxSlow := run(topo.PresetSKX, 2)
	if skxSlow.LossPct > 1 || skxSlow.Zeros != 0 {
		t.Errorf("skx @2Hz: loss %.1f%%, zeros %d — should be clean", skxSlow.LossPct, skxSlow.Zeros)
	}
	skxFast := run(topo.PresetSKX, 32)
	iclFast := run(topo.PresetICL, 32)
	if skxFast.LossPct < 15 {
		t.Errorf("skx @32Hz: loss %.1f%%, want the heavy losses of Table III", skxFast.LossPct)
	}
	if iclFast.LossPct > 10 {
		t.Errorf("icl @32Hz: loss %.1f%%, should stay small", iclFast.LossPct)
	}
	if skxFast.LossPct < iclFast.LossPct*2 {
		t.Errorf("loss should scale with instance-domain size: skx %.1f%% vs icl %.1f%%",
			skxFast.LossPct, iclFast.LossPct)
	}
	if iclFast.Zeros == 0 {
		t.Error("high-frequency sampling should produce batched zeros")
	}
	if iclFast.ATput >= iclFast.Tput {
		t.Error("actual throughput must exclude zeros")
	}
}

func TestAgentResourceAccounting(t *testing.T) {
	m, p := newStack(t, topo.PresetSKX)
	_ = m
	// Memory is constant; CPU accrues per sample.
	la, _ := p.Agent(AgentLinux)
	lu := la.(*LinuxAgent).Usage()
	cpu0, mem0, _ := lu.Snapshot()
	for i := 0; i < 100; i++ {
		if _, err := p.Sample(machine.MetricCPUIdle); err != nil {
			t.Fatal(err)
		}
	}
	cpu1, mem1, calls := lu.Snapshot()
	if cpu1 <= cpu0 {
		t.Error("CPU accounting did not accrue")
	}
	if mem1 != mem0 {
		t.Error("agent memory should stay constant (Fig 6)")
	}
	if calls != 100 {
		t.Errorf("calls = %d", calls)
	}
	// pmdaproc has the largest footprint.
	pa, _ := p.Agent(AgentProc)
	_, memProc, _ := pa.(*ProcAgent).Usage().Snapshot()
	if memProc <= mem1 {
		t.Error("pmdaproc should have the larger instance-domain memory")
	}
}

func TestSamplingCostChargesMachine(t *testing.T) {
	m, p := newStack(t, topo.PresetICL)
	if err := m.ProgramAll([]string{pmu.IntelCycles}); err != nil {
		t.Fatal(err)
	}
	exec, err := m.Launch(machine.WorkloadSpec{
		Name: "victim", Iters: 100_000_000,
		FPInstr: map[topo.ISA]float64{topo.ISAScalar: 1},
		Loads:   1, MemISA: topo.ISAScalar, WorkingSetBytes: 8 << 10,
	}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := exec.Duration
	for i := 0; i < 50; i++ {
		if _, err := p.Sample(MetricForEvent(pmu.IntelCycles)); err != nil {
			t.Fatal(err)
		}
	}
	if exec.Duration <= before {
		t.Error("PMU sampling should interfere with the running kernel (Fig 5)")
	}
}

// tickMetrics is a monitoring tick on skx: five PMU events, each across
// all 88 hardware threads.
func tickMetrics(tb testing.TB) (*PMCD, []string) {
	tb.Helper()
	m, err := machine.New(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	events := []string{pmu.IntelCycles, pmu.IntelInstructions, "FP_ARITH:SCALAR_DOUBLE", "MEM_INST_RETIRED:ALL_LOADS", "MEM_INST_RETIRED:ALL_STORES"}
	if err := m.ProgramAll(events); err != nil {
		tb.Fatal(err)
	}
	var metrics []string
	for _, ev := range events {
		metrics = append(metrics, MetricForEvent(ev))
	}
	return NewPMCD(m), metrics
}

// TestSampleAllocations: instance names and counter handles are resolved
// when the agent is built, so a tick allocates its five value maps and
// nothing per value.
func TestSampleAllocations(t *testing.T) {
	p, metrics := tickMetrics(t)
	tick := func() {
		for _, metric := range metrics {
			s, err := p.Sample(metric)
			if _, ok := s.Values["_cpu87"]; err != nil || len(s.Values) != 88 || !ok {
				t.Fatalf("%s: %d values, %v", metric, len(s.Values), err)
			}
		}
	}
	tick()
	if n := testing.AllocsPerRun(50, tick); n > float64(8*len(metrics)) {
		t.Errorf("a tick of %d metrics x 88 threads allocates %v objects; want a few per metric, none per value", len(metrics), n)
	}
}

func BenchmarkSampleTick(b *testing.B) {
	p, metrics := tickMetrics(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, metric := range metrics {
			if _, err := p.Sample(metric); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// discardSink takes every batch and keeps nothing.
type discardSink struct{}

func (discardSink) WriteBatchContext(context.Context, []tsdb.Point) error { return nil }

// offerTick returns one skx tick, five metrics across 88 threads, and a
// collector that offers it into a sink that discards it.
func offerTick(tb testing.TB) (*Collector, []Sample) {
	p, metrics := tickMetrics(tb)
	var tick []Sample
	for _, metric := range metrics {
		s, err := p.Sample(metric)
		if err != nil {
			tb.Fatal(err)
		}
		tick = append(tick, s)
	}
	cfg := DefaultPipeline()
	cfg.StallProb = 0
	col := NewCollector(nil, cfg)
	col.Sink = discardSink{}
	return col, tick
}

// TestOfferAllocations: a collector spells each metric's measurement name
// and builds a tag's map once, so a tick allocates its batch and nothing
// per sample.
func TestOfferAllocations(t *testing.T) {
	col, tick := offerTick(t)
	ctx, now := context.Background(), 0.0
	offer := func() {
		now++
		if err := col.OfferContext(ctx, now, tick, "t", false); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, offer); n > 1 || col.Lost != 0 {
		t.Errorf("offering a tick of %d samples: %v allocations, %d values lost; want 1 (the batch), none lost", len(tick), n, col.Lost)
	}
}

// BenchmarkOffer: what the collector itself costs a tick (offerTick).
func BenchmarkOffer(b *testing.B) {
	col, tick := offerTick(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col.OfferContext(ctx, float64(i), tick, "t", false); err != nil {
			b.Fatal(err)
		}
	}
	if col.Lost != 0 {
		b.Fatalf("%d values lost: the pipeline was still busy", col.Lost)
	}
}
