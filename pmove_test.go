package pmove

import (
	"context"
	"pmove/internal/cluster"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the facade the way the README's
// quickstart does: probe, views, monitor, observe, CARM, dashboards and
// SUPERDB upload, all through the exported surface only.
func TestPublicAPIEndToEnd(t *testing.T) {
	d, err := NewDaemonWith(WithEnv(EnvFromOS()))
	if err != nil {
		t.Fatal(err)
	}
	sys := MustPreset(PresetCSL)
	if _, err := d.AttachTarget(sys, MachineConfig{Seed: 99}, DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	kb, err := d.ProbeContext(context.Background(), PresetCSL)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Len() == 0 {
		t.Fatal("empty KB")
	}

	// Views.
	if _, err := kb.LevelView(KindThread); err != nil {
		t.Fatal(err)
	}

	// Scenario A.
	mon, err := d.MonitorContext(context.Background(), MonitorRequest{Host: PresetCSL, Metrics: nil, FreqHz: 2, DurationSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mon.Stats.Inserted == 0 {
		t.Fatal("no telemetry inserted")
	}
	dash, err := RenderDashboard(d.TS, mon.Dashboard, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dash, "dashboard") {
		t.Error("dashboard render broken")
	}

	// Scenario B with a likwid kernel.
	spec, err := LikwidKernel("ddot", ISAAVX512, 1<<20, 500)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := d.ObserveContext(context.Background(), ObserveRequest{
		Host: PresetCSL, Workload: spec, Threads: 4, Pin: PinBalanced,
		HWEvents: []string{"UNHALTED_CORE_CYCLES", "INSTRUCTION_RETIRED"},
		FreqHz:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Queries) == 0 {
		t.Fatal("no recall queries")
	}

	// CARM.
	model, err := d.ConstructCARMContext(context.Background(), PresetCSL, ISAAVX512, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderCARM(model, nil, 40, 10); !strings.Contains(out, "live-CARM") {
		t.Error("CARM render broken")
	}

	// SpMV through the facade.
	m, err := GenerateMatrix("adaptive", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Reorder(m, OrderRCM, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, r.Cols)
	y := make([]float64, r.Rows)
	if err := SpMV(r, AlgoMerge, x, y, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveSpMVWorkload(sys, r, AlgoMKL, 4); err != nil {
		t.Fatal(err)
	}

	// SUPERDB.
	global := NewSuperDB()
	if err := global.ReportKB(kb); err != nil {
		t.Fatal(err)
	}
	if len(global.Hosts()) != 1 {
		t.Fatal("SUPERDB upload failed")
	}

	// Abstraction layer.
	reg, err := DefaultAbstRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("cascade", "TOTAL_MEMORY_OPERATIONS"); err != nil {
		t.Fatal(err)
	}
}

// TestPinFacade covers the exported pinning helper.
func TestPinFacade(t *testing.T) {
	sys := MustPreset(PresetICL)
	for _, strat := range []PinStrategy{PinBalanced, PinCompact, PinNUMABalanced, PinNUMACompact} {
		pin, err := Pin(sys, strat, 4)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(pin) != 4 {
			t.Fatalf("%s: %v", strat, pin)
		}
	}
}

// TestCrossLevelViewFacade builds the Fig 2(d) view through the facade.
func TestCrossLevelViewFacade(t *testing.T) {
	mk := func(preset string) *KB {
		d, err := NewDaemonWith(WithEnv(EnvFromOS()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AttachTarget(MustPreset(preset), MachineConfig{Seed: 1}, DefaultPipeline()); err != nil {
			t.Fatal(err)
		}
		k, err := d.ProbeContext(context.Background(), preset)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	v, err := CrossLevelView(KindSocket, mk(PresetSKX), mk(PresetICL))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != 3 {
		t.Fatalf("nodes: %d", len(v.Nodes))
	}
}

// TestExtensionsFacade exercises the anomaly/what-if/cluster exports.
func TestExtensionsFacade(t *testing.T) {
	spec, err := LikwidKernel("peakflops", ISAAVX2, 4<<10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := PredictOn(MustPreset(PresetZEN3), spec, 8, PinBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if out.GFLOPS <= 0 || out.Bottleneck == "" {
		t.Errorf("outcome: %+v", out)
	}
	rec, err := RecommendUpgrade(PresetICL, spec, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Suggestion == "" {
		t.Error("no suggestion")
	}
	if DefaultAnomalyScanner() == nil {
		t.Error("no scanner")
	}
	c, err := NewCluster(PresetICL, 2, clusterFabric(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 2 {
		t.Error("cluster facade broken")
	}
}

func clusterFabric() cluster.Interconnect {
	return cluster.Interconnect{LinkGBs: 12.5, LatencyMicros: 2}
}
