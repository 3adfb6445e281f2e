package pmove

import (
	"context"
	"testing"

	"pmove/internal/experiments"
	"pmove/internal/spmv"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§V). Each runs the corresponding experiment end-to-end and
// reports the headline quantities as benchmark metrics; `go test -bench=.`
// therefore reprints the whole evaluation. Absolute values come from the
// analytic substrate — the shapes are what reproduce (see EXPERIMENTS.md).

// BenchmarkTableI_AbstractionLayer resolves the Table I generic events on
// Intel Cascade and AMD Zen3 through the Abstraction Layer.
func BenchmarkTableI_AbstractionLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII_Throughput reruns the throughput/loss sweep: sampling
// frequency {2,8,32} Hz x metric count {4,5,6} on skx and icl.
func BenchmarkTableIII_Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(10)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Host == "skx" && r.FreqHz == 32 && r.NMetrics == 5 {
				b.ReportMetric(r.LossPct, "skx32hz-loss-%")
				b.ReportMetric(r.Tput, "skx32hz-pts/s")
			}
			if r.Host == "icl" && r.FreqHz == 32 && r.NMetrics == 5 {
				b.ReportMetric(r.LZPct, "icl32hz-L+Z-%")
			}
		}
	}
}

// BenchmarkFig2_Dashboards generates the four auto-dashboard classes of
// Fig 2 from freshly probed skx and icl knowledge bases.
func BenchmarkFig2_Dashboards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		panels := 0
		for _, n := range res.PanelCounts {
			panels += n
		}
		b.ReportMetric(float64(panels), "panels")
	}
}

// BenchmarkFig4_Accuracy measures the relative error between sampled and
// ground-truth counts for the likwid kernels across frequencies.
func BenchmarkFig4_Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4([]string{"skx", "icl", "zen3"}, []float64{2, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range res.Averaged() {
			if e := abs(r.FlopsErr); e > worst {
				worst = e
			}
			if e := abs(r.BytesErr); e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst*100, "worst-err-%")
	}
}

// BenchmarkFig5_Overhead measures kernel run-time overhead with and
// without PMU sampling (5 repetitions averaged, as in the paper).
func BenchmarkFig5_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5("skx", []float64{2, 8, 32}, 5)
		if err != nil {
			b.Fatal(err)
		}
		var at32, n32 float64
		for _, r := range res.Rows {
			if r.FreqHz == 32 {
				at32 += r.OverheadPct
				n32++
			}
		}
		b.ReportMetric(at32/n32, "overhead32hz-%")
	}
}

// BenchmarkFig6_ResourceUsage measures per-agent CPU/memory and pipeline
// network/disk rates across sampling intervals on an idle skx.
func BenchmarkFig6_ResourceUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6([]float64{0.25, 0.5, 1, 2, 4, 8}, 60)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Agent == "pmcd" && r.IntervalSec == 1 {
				b.ReportMetric(r.NetKBps, "net-KB/s@1Hz")
			}
		}
	}
}

// BenchmarkFig7_SpMVMonitoring runs the full Fig 7 experiment: MKL and
// merge SpMV over the five (synthetic) Table IV matrices, original vs
// RCM-reordered, observed through Scenario B on CSL.
func BenchmarkFig7_SpMVMonitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Small, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupPct(), "rcm-speedup-%")
	}
}

// BenchmarkFig8_LiveCARMSpMV feeds the four SpMV phases through the
// live-CARM panel over a freshly constructed CSL roofline model.
func BenchmarkFig8_LiveCARMSpMV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Small, 8)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := res.Summary("mkl/rcm"); ok {
			b.ReportMetric(s.MedianGF, "mkl-rcm-GFLOPS")
		}
		if s, ok := res.Summary("merge/rcm"); ok {
			b.ReportMetric(s.MedianGF, "merge-rcm-GFLOPS")
		}
	}
}

// BenchmarkFig9_LiveCARMBenchmarks profiles Triad, PeakFlops and DDOT
// against the live-CARM roofs.
func BenchmarkFig9_LiveCARMBenchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			b.ReportMetric(r.MedianAI, r.Kernel+"-AI")
		}
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// --- Component micro-benchmarks -----------------------------------------

// BenchmarkKBGenerate measures full knowledge-base generation for the
// 88-thread skx (the probe -> KB path of Figure 3).
func BenchmarkKBGenerate(b *testing.B) {
	d, err := NewDaemonWith(WithEnv(EnvFromOS()))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.AttachTarget(MustPreset(PresetSKX), MachineConfig{Seed: 1}, DefaultPipeline()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb, err := d.ProbeContext(context.Background(), PresetSKX)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(kb.Len()), "twins")
		}
	}
}

// BenchmarkSpMVMerge measures the real merge-path SpMV kernel on a
// synthetic mesh.
func BenchmarkSpMVMerge(b *testing.B) {
	benchSpMV(b, AlgoMerge)
}

// BenchmarkSpMVRowSplit measures the MKL-style row-partitioned kernel.
func BenchmarkSpMVRowSplit(b *testing.B) {
	benchSpMV(b, AlgoMKL)
}

func benchSpMV(b *testing.B, algo SpMVAlgorithm) {
	m, err := GenerateMatrix("adaptive", 250000, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SpMV(m, algo, x, y, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*m.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e9, "real-GFLOP/s")
}

// BenchmarkRCM measures the Reverse Cuthill-McKee reordering.
func BenchmarkRCM(b *testing.B) {
	m, err := GenerateMatrix("adaptive", 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Reorder(m, OrderRCM, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCARMConstruction measures full roofline construction (all
// levels and the FP probe) on the analytic engine.
func BenchmarkCARMConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := NewDaemonWith(WithEnv(EnvFromOS()))
		if err != nil {
			b.Fatal(err)
		}
		sys := MustPreset(PresetCSL)
		if _, err := d.AttachTarget(sys, MachineConfig{Seed: uint64(i)}, DefaultPipeline()); err != nil {
			b.Fatal(err)
		}
		if _, err := d.ProbeContext(context.Background(), PresetCSL); err != nil {
			b.Fatal(err)
		}
		model, err := d.ConstructCARMContext(context.Background(), PresetCSL, ISAAVX512, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(model.PeakGFLOPS, "peak-GFLOPS")
		}
	}
}

// BenchmarkMergePathSearch measures the merge-path binary search that
// load-balances the merge SpMV.
func BenchmarkMergePathSearch(b *testing.B) {
	m, err := GenerateMatrix("human_gene1", 1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	nnz := m.NNZ()
	total := m.Rows + nnz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := (i * 7919) % total
		c := spmv.MergePathSearch(d, m.RowPtr, m.Rows, nnz)
		if c.Row+c.NNZ != d {
			b.Fatal("broken search")
		}
	}
}
