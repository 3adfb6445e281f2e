package core

import (
	"context"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// BenchmarkProbeSkx times one probe of the skx target: topology probe,
// KB generation and Persist of its 233 interface documents into the
// embedded docdb — the set-up every live_monitor run pays before its
// first tick (core.probe_ms in the benchmark's trace).
func BenchmarkProbeSkx(b *testing.B) {
	d, err := NewWith(WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded"}))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AttachTarget(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ProbeContext(ctx, topo.PresetSKX); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttachPersist times one entry attach on a durable skx daemon
// under fsync=always — what every monitor, observe, live-CARM and
// benchmark run pays to record its result in the KB — and reports the
// docdb WAL bytes each attach appends.
func BenchmarkAttachPersist(b *testing.B) {
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded"}),
		WithDataDir(b.TempDir(), "always"),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	t, err := d.AttachTarget(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 9}, telemetry.DefaultPipeline())
	if err != nil {
		b.Fatal(err)
	}
	k, err := d.ProbeContext(context.Background(), topo.PresetSKX)
	if err != nil {
		b.Fatal(err)
	}
	ref := kb.MetricRef{Measurement: "cpu_idle", Fields: d.fieldsForMetric(t, machine.MetricCPUIdle)}
	before := walSize(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := d.nextTag(k)
		obs := &kb.Observation{ID: "obs:" + tag, Type: "ObservationInterface", Tag: tag,
			Host: topo.PresetSKX, Command: "monitor", FreqHz: 2, Metrics: []kb.MetricRef{ref}}
		if err := d.attachAndPersist(k, obs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(walSize(b, d)-before)/float64(b.N), "wal_B/attach")
}
