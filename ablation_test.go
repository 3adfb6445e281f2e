package pmove

import (
	"context"
	"fmt"
	"testing"

	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/pmu"
	"pmove/internal/spmv"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// Ablation benchmarks isolate the design choices DESIGN.md calls out:
// the unbuffered shipment pipeline (the Table III loss mechanism), PMU
// counter multiplexing, thread-pinning strategies, and the matrix
// reorderings. Run with `go test -bench=Ablation`.

// runPipeline samples never-zero events at 32 Hz for 10 s and returns the
// session statistics under the given pipeline configuration.
func runPipeline(b *testing.B, cfg telemetry.PipelineConfig) telemetry.SessionStats {
	b.Helper()
	m, err := machine.New(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	events := m.Catalog().NeverZeroEvents()
	if err := m.ProgramAll(events); err != nil {
		b.Fatal(err)
	}
	metrics := make([]string, len(events))
	for i, ev := range events {
		metrics[i] = telemetry.MetricForEvent(ev)
	}
	col := telemetry.NewCollector(tsdb.New(), cfg)
	sess, err := telemetry.NewSession(telemetry.NewPMCD(m), col, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: 32, DurationSeconds: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := sess.RunContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkAblation_UnbufferedVsBuffered contrasts PCP's no-buffer design
// (losses under pressure) with a hypothetical queued pipeline (no losses,
// growing staleness). The paper's §V-A attributes Table III's losses to
// exactly this choice.
func BenchmarkAblation_UnbufferedVsBuffered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unbuf := runPipeline(b, telemetry.DefaultPipeline())
		cfg := telemetry.DefaultPipeline()
		cfg.Buffered = true
		buf := runPipeline(b, cfg)
		if buf.Lost != 0 {
			b.Fatalf("buffered pipeline lost %d points", buf.Lost)
		}
		if unbuf.Lost == 0 {
			b.Fatal("unbuffered pipeline should lose points at 32 Hz on skx")
		}
		b.ReportMetric(unbuf.LossPct, "unbuffered-loss-%")
		b.ReportMetric(buf.LossPct, "buffered-loss-%")
	}
}

// BenchmarkAblation_Multiplexing compares read accuracy with the event
// set inside vs beyond the programmable-counter budget (Intel: 4).
func BenchmarkAblation_Multiplexing(b *testing.B) {
	read := func(nEvents int) float64 {
		m, err := machine.New(topo.MustPreset(topo.PresetICL), machine.Config{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		cat := m.Catalog()
		// Start with events the stream kernel actually exercises so every
		// compared event has nonzero truth, then pad with the rest of the
		// core events to engage multiplexing.
		events := []string{
			pmu.IntelCycles, pmu.IntelInstructions,
			pmu.IntelLoads, pmu.IntelStores,
		}
		for _, ev := range cat.Names() {
			if len(events) >= nEvents {
				break
			}
			def, _ := cat.Lookup(ev)
			dup := false
			for _, e := range events {
				dup = dup || e == ev
			}
			if def.PMU == "core" && !dup {
				events = append(events, ev)
			}
		}
		events = events[:nEvents]
		if err := m.ProgramAll(events); err != nil {
			b.Fatal(err)
		}
		spec, err := kernels.Likwid("stream", topo.ISAScalar, 8<<20, 200)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := m.Run(spec, []int{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		// Mean |relative error| over the programmed events with nonzero
		// truth.
		tp, _ := m.ThreadPMU(0)
		var sum float64
		var n int
		for _, ev := range events {
			truth := tp.Truth(ev)
			if truth == 0 {
				continue
			}
			v, err := tp.Read(ev)
			if err != nil {
				b.Fatal(err)
			}
			e := pmu.RelativeError(v, truth)
			if e < 0 {
				e = -e
			}
			sum += e
			n++
		}
		_ = exec
		return sum / float64(n)
	}
	for i := 0; i < b.N; i++ {
		plain := read(4)  // fits the counters
		muxed := read(10) // multiplexed
		if muxed <= plain {
			b.Logf("warning: multiplexed error %.5f not above plain %.5f this round", muxed, plain)
		}
		b.ReportMetric(plain*100, "4ev-err-%")
		b.ReportMetric(muxed*100, "10ev-err-%")
	}
}

// BenchmarkAblation_PinningStrategies runs the same memory-bound kernel
// under all four affinity strategies of Scenario B.
func BenchmarkAblation_PinningStrategies(b *testing.B) {
	spec, err := kernels.Likwid("triad", topo.ISAAVX512, 256<<20, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, strat := range topo.PinStrategies() {
			m, err := machine.New(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 3, Noiseless: true})
			if err != nil {
				b.Fatal(err)
			}
			pin, err := topo.Pin(m.System(), strat, 8)
			if err != nil {
				b.Fatal(err)
			}
			exec, err := m.Run(spec, pin)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(exec.GBps, string(strat)+"-GB/s")
		}
	}
}

// BenchmarkAblation_Orderings extends Fig 7 to all four reorderings of
// §III-B's level-view example (none, rcm, degree, random) on the
// scattered mesh, reporting the modelled SpMV GFLOPS of each.
func BenchmarkAblation_Orderings(b *testing.B) {
	base, err := spmv.Generate("adaptive", 250000, 5)
	if err != nil {
		b.Fatal(err)
	}
	sys := topo.MustPreset(topo.PresetCSL)
	for i := 0; i < b.N; i++ {
		for _, ord := range spmv.Orderings() {
			mat, _, err := spmv.Reorder(base, ord, 11)
			if err != nil {
				b.Fatal(err)
			}
			spec, err := spmv.DeriveWorkload(sys, mat, spmv.AlgoMKL, 8)
			if err != nil {
				b.Fatal(err)
			}
			m, err := machine.New(sys, machine.Config{Seed: 2, Noiseless: true})
			if err != nil {
				b.Fatal(err)
			}
			pin, err := topo.Pin(sys, topo.PinBalanced, 8)
			if err != nil {
				b.Fatal(err)
			}
			exec, err := m.Run(spec, pin)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(exec.GFLOPS, string(ord)+"-GFLOPS")
		}
	}
}

// BenchmarkAblation_CounterRefresh sweeps the PMU readout refresh period,
// the knob behind Table III's batched zeros.
func BenchmarkAblation_CounterRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, refresh := range []float64{0, 0.024, 0.048, 0.096} {
			cfg := telemetry.DefaultPipeline()
			cfg.CounterRefreshSeconds = refresh
			st := runPipeline(b, cfg)
			b.ReportMetric(st.LossPlusZPct, fmt.Sprintf("refresh%.0fms-L+Z-%%", refresh*1000))
		}
	}
}

// BenchmarkAblation_LoadBalance contrasts the row-split and merge-path
// partitions on an arrowhead matrix: the per-thread work spread (max-min
// of the normalised factors) is the quantity the merge-path algorithm
// exists to eliminate.
func BenchmarkAblation_LoadBalance(b *testing.B) {
	n := 4000
	var ri, ci []int
	var vs []float64
	for i := 0; i < n; i++ {
		deg := 4
		if i < n/8 {
			deg = n / 4
		}
		for d := 0; d < deg; d++ {
			ri = append(ri, i)
			ci = append(ci, (i+d+1)%n)
			vs = append(vs, 1)
		}
	}
	m, err := spmv.FromTriplets("arrow", n, n, ri, ci, vs)
	if err != nil {
		b.Fatal(err)
	}
	spread := func(fs []float64) float64 {
		min, max := fs[0], fs[0]
		for _, f := range fs {
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		return max - min
	}
	for i := 0; i < b.N; i++ {
		mkl, err := spmv.ThreadWorkFactors(m, spmv.AlgoMKL, 8)
		if err != nil {
			b.Fatal(err)
		}
		merge, err := spmv.ThreadWorkFactors(m, spmv.AlgoMerge, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(spread(mkl), "rowsplit-spread")
		b.ReportMetric(spread(merge), "mergepath-spread")
	}
}
