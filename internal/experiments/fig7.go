package experiments

import (
	"context"
	"fmt"

	"pmove/internal/abst"
	"pmove/internal/core"
	"pmove/internal/machine"
	"pmove/internal/spmv"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// Fig7Phase is one monitored execution phase: one (matrix, algorithm,
// ordering) combination.
type Fig7Phase struct {
	Matrix    string
	Algorithm spmv.Algorithm
	Ordering  spmv.Ordering
	Seconds   float64
	// Event totals over the phase.
	ScalarDP  uint64
	AVX512DP  uint64
	MemInstr  uint64
	MeanWatts float64
	GFLOPS    float64
	Checksum  float64
}

// Fig7Result reproduces Fig 7: "Monitoring live performance events during
// SpMV execution on Intel CSL system" — MKL then Merge over five matrices,
// original (top) vs RCM-reordered (bottom).
type Fig7Result struct {
	Phases []Fig7Phase
	// TotalSeconds[ordering] sums the ten phases of each half of the
	// figure; the paper observes the reordered half takes ≈22% less time.
	TotalSeconds map[spmv.Ordering]float64
	Threads      int
}

// Fig7 runs the experiment on a CSL target through the full Scenario B
// path: every phase is a daemon observation with the paper's PMU events
// (SCALAR_DOUBLE_INSTRUCTIONS, AVX512_DOUBLE_INSTR., TOTAL_MEMORY_INSTR.,
// RAPL_POWER_PACKAGE). The SpMV results themselves are computed (both
// kernels really multiply) and cross-checked.
func Fig7(scale Scale, threads int) (*Fig7Result, error) {
	ctx := context.Background()
	sys := topo.MustPreset(topo.PresetCSL)
	if threads <= 0 {
		threads = sys.NumCores()
	}
	d, err := core.NewWith(core.WithEnv(core.EnvFromOS()))
	if err != nil {
		return nil, err
	}
	if _, err := d.AttachTarget(sys, machine.Config{Seed: 11}, telemetry.DefaultPipeline()); err != nil {
		return nil, err
	}
	if _, err := d.ProbeContext(ctx, sys.Hostname); err != nil {
		return nil, err
	}
	t, err := d.Target(sys.Hostname)
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{TotalSeconds: map[spmv.Ordering]float64{}, Threads: threads}
	generics := []string{
		abst.GenericScalarDouble, abst.GenericAVX512Double,
		abst.GenericTotalMemOps, abst.GenericEnergy,
	}
	for _, ord := range []spmv.Ordering{spmv.OrderNone, spmv.OrderRCM} {
		for _, mi := range spmv.PaperMatrices() {
			base, err := spmv.Generate(mi.Name, matrixRows(mi.Name, scale), 5)
			if err != nil {
				return nil, err
			}
			mat, _, err := spmv.Reorder(base, ord, 3)
			if err != nil {
				return nil, err
			}
			for _, algo := range spmv.Algorithms() {
				// Real numeric run (the "requested executable").
				info, _, err := spmv.Execute(mat, algo, ord, threads)
				if err != nil {
					return nil, err
				}
				spec, err := spmv.DeriveWorkloadRepeated(sys, mat, algo, threads, spmvRepeats(mat.NNZ()))
				if err != nil {
					return nil, err
				}
				raplBefore := raplTruth(t)
				tBefore := t.Machine.Now()
				obsRes, err := d.ObserveContext(ctx, core.ObserveRequest{
					Host:          sys.Hostname,
					Workload:      spec,
					Command:       fmt.Sprintf("spmv --algo %s --matrix %s --order %s", algo, mi.Name, ord),
					Threads:       threads,
					Pin:           topo.PinBalanced,
					GenericEvents: generics,
					SWMetrics:     []string{machine.MetricNUMAAllocHit},
					FreqHz:        10,
				})
				if err != nil {
					return nil, err
				}
				exec := obsRes.Execution
				dt := t.Machine.Now() - tBefore
				watts := 0.0
				if dt > 0 {
					watts = (raplTruth(t) - raplBefore) / 1e6 / dt
				}
				ph := Fig7Phase{
					Matrix: mi.Name, Algorithm: algo, Ordering: ord,
					Seconds:   exec.Duration,
					ScalarDP:  exec.TotalTruth("FP_ARITH:SCALAR_DOUBLE"),
					AVX512DP:  exec.TotalTruth("FP_ARITH:512B_PACKED_DOUBLE"),
					MemInstr:  exec.TotalTruth("MEM_INST_RETIRED:ALL_LOADS") + exec.TotalTruth("MEM_INST_RETIRED:ALL_STORES"),
					MeanWatts: watts,
					GFLOPS:    exec.GFLOPS,
					Checksum:  info.Checksum,
				}
				res.Phases = append(res.Phases, ph)
				res.TotalSeconds[ord] += ph.Seconds
			}
		}
	}
	return res, nil
}

// raplTruth sums exact package microjoules across sockets.
func raplTruth(t *core.Target) float64 {
	total := 0.0
	for _, sk := range t.System.Sockets {
		r, err := t.Machine.RAPL(sk.ID)
		if err == nil {
			total += float64(r.Truth("pkg"))
		}
	}
	return total
}

// SpeedupPct returns how much faster the RCM half completed, in percent
// (the paper reports ≈22%).
func (r *Fig7Result) SpeedupPct() float64 {
	orig := r.TotalSeconds[spmv.OrderNone]
	rcm := r.TotalSeconds[spmv.OrderRCM]
	if orig == 0 {
		return 0
	}
	return (orig - rcm) / orig * 100
}

// Render formats the phase table.
func (r *Fig7Result) Render() string {
	tw := newTableWriter(
		fmt.Sprintf("Fig 7: live PMU events during SpMV on CSL (%d threads)", r.Threads),
		"%-9s %-18s %-6s %10s %12s %12s %12s %8s %9s\n",
		"Ordering", "Matrix", "Algo", "time (s)", "scalar DP", "AVX512 DP", "mem instr", "watts", "GFLOP/s")
	for _, p := range r.Phases {
		tw.row(string(p.Ordering), p.Matrix, string(p.Algorithm),
			fmt.Sprintf("%.4f", p.Seconds),
			sciNotation(float64(p.ScalarDP)), sciNotation(float64(p.AVX512DP)),
			sciNotation(float64(p.MemInstr)),
			fmt.Sprintf("%.1f", p.MeanWatts), fmt.Sprintf("%.2f", p.GFLOPS))
	}
	return tw.String() + fmt.Sprintf(
		"\ntotal original: %.4fs   total rcm: %.4fs   rcm speedup: %.1f%% (paper: ~22%%)\n",
		r.TotalSeconds[spmv.OrderNone], r.TotalSeconds[spmv.OrderRCM], r.SpeedupPct())
}
