package core

import (
	"context"
	"testing"

	"pmove/internal/anomaly"
	"pmove/internal/kb"
	"pmove/internal/pmu"
	"pmove/internal/spmv"
	"pmove/internal/topo"
)

// arrowMatrix builds an arrowhead matrix: the first n/8 rows are dense
// (the classic row-split pathology — constraint rows, hub genes), the
// rest are a light band. Row-split gives the first thread several times
// the mean work; merge-path splits rows+nonzeros exactly evenly.
func arrowMatrix(t *testing.T, n int) *spmv.CSR {
	t.Helper()
	var ri, ci []int
	var vs []float64
	heavy := n / 8
	for i := 0; i < n; i++ {
		deg := 4
		if i < heavy {
			deg = n / 3
		}
		for d := 0; d < deg; d++ {
			ri = append(ri, i)
			ci = append(ci, (i+d*7+1)%n)
			vs = append(vs, 1)
		}
	}
	m, err := spmv.FromTriplets("arrow", n, n, ri, ci, vs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestImbalanceDetectionEndToEnd closes the monitoring loop the paper's
// introduction motivates ("load imbalances … can result in up to a 100%
// difference in performance"): the row-split SpMV kernel on an arrowhead
// matrix has a genuinely skewed per-thread partition; observing it
// through Scenario B and scanning the per-CPU counters must flag the
// imbalance, while the merge-path kernel (whose merge-path partition
// equalises work by construction) must come out clean.
func TestImbalanceDetectionEndToEnd(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	mat := arrowMatrix(t, 1200)
	threads := 8
	sys := topo.MustPreset(topo.PresetCSL)

	scan := func(algo spmv.Algorithm) []anomaly.Finding {
		t.Helper()
		factors, err := spmv.ThreadWorkFactors(mat, algo, threads)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := spmv.DeriveWorkloadRepeated(sys, mat, algo, threads, 8000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.ObserveContext(context.Background(), ObserveRequest{
			Host: "csl", Workload: spec,
			Command: "spmv --algo " + string(algo), Threads: threads,
			Pin:         topo.PinBalanced,
			HWEvents:    []string{pmu.IntelInstructions},
			FreqHz:      50,
			WorkFactors: factors,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Restrict the scan to the pinned CPUs' fields: idle CPUs carry
		// only baseline counts and are not the kernel's siblings.
		var fields []string
		for _, hw := range res.Observation.Affinity {
			fields = append(fields, fieldFor(hw))
		}
		scoped := *res.Observation
		scoped.Metrics = nil
		for _, m := range res.Observation.Metrics {
			if m.Measurement == "perfevent_hwcounters_INSTRUCTION_RETIRED" {
				scoped.Metrics = append(scoped.Metrics, kb.MetricRef{
					Measurement: m.Measurement, Fields: fields,
				})
			}
		}
		findings, err := anomaly.DefaultScanner().ScanObservation(d.TS, &scoped)
		if err != nil {
			t.Fatal(err)
		}
		var out []anomaly.Finding
		for _, f := range findings {
			if f.Detector == "imbalance" {
				out = append(out, f)
			}
		}
		return out
	}

	// Row-split on a heavy-tailed matrix: imbalance expected.
	mklFindings := scan(spmv.AlgoMKL)
	// Merge-path: balanced by construction.
	mergeFindings := scan(spmv.AlgoMerge)

	factors, _ := spmv.ThreadWorkFactors(mat, spmv.AlgoMKL, threads)
	spreadMKL := spread(factors)
	factorsMerge, _ := spmv.ThreadWorkFactors(mat, spmv.AlgoMerge, threads)
	spreadMerge := spread(factorsMerge)
	if spreadMKL < 2*spreadMerge {
		t.Fatalf("partition skew: mkl %.3f vs merge %.3f — matrix not heavy-tailed enough", spreadMKL, spreadMerge)
	}
	if len(mergeFindings) > 0 {
		t.Errorf("merge-path flagged as imbalanced: %+v", mergeFindings)
	}
	if len(mklFindings) == 0 {
		t.Errorf("row-split imbalance not detected (partition spread %.3f)", spreadMKL)
	}
}

func fieldFor(hw int) string { return "_cpu" + itoa(hw) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func spread(fs []float64) float64 {
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

// TestDaemonScan exercises the daemon-level scan wrapper on an imbalanced
// observation.
func TestDaemonScan(t *testing.T) {
	d := testDaemon(t, topo.PresetCSL)
	mat := arrowMatrix(t, 1200)
	threads := 8
	sys := topo.MustPreset(topo.PresetCSL)
	factors, err := spmv.ThreadWorkFactors(mat, spmv.AlgoMKL, threads)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := spmv.DeriveWorkloadRepeated(sys, mat, spmv.AlgoMKL, threads, 8000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ObserveContext(context.Background(), ObserveRequest{
		Host: "csl", Workload: spec, Command: "spmv", Threads: threads,
		Pin: topo.PinBalanced, HWEvents: []string{pmu.IntelInstructions},
		FreqHz: 50, WorkFactors: factors,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := d.ScanContext(context.Background(), "csl", res.Observation.Tag)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range scan.Findings {
		if f.Detector == "imbalance" {
			found = true
		}
	}
	if !found {
		t.Errorf("scan missed the imbalance; report:\n%s", scan.Report)
	}
	if scan.Report == "" {
		t.Error("empty report")
	}
	if _, err := d.ScanContext(context.Background(), "csl", "no-such-tag"); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := d.ScanContext(context.Background(), "ghost", "x"); err == nil {
		t.Error("unknown host accepted")
	}
}
