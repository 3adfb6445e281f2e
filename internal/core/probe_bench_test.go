package core

import (
	"context"
	"testing"

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
