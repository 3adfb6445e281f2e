// spmv_monitor reproduces the §V-D scenario: observe MKL-class and
// merge-path SpMV kernels on the Cascade Lake server while sampling the
// PMU events of Fig 7 (scalar/AVX-512 FP instructions, memory
// instructions, package power), with original and RCM-reordered matrices.
// Both kernels really multiply; the analytic engine replays the runs with
// live telemetry and the daemon attaches an ObservationInterface per phase.
package main

import (
	"context"
	"fmt"
	"log"

	"pmove"
	"pmove/internal/abst"
	"pmove/internal/spmv"
)

func main() {
	ctx := context.Background()
	d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
	if err != nil {
		log.Fatal(err)
	}
	sys := pmove.MustPreset(pmove.PresetCSL)
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: 7}, pmove.DefaultPipeline()); err != nil {
		log.Fatal(err)
	}
	if _, err := d.ProbeContext(ctx, sys.Hostname); err != nil {
		log.Fatal(err)
	}

	threads := 8
	matrix := "hugetrace-00020"
	base, err := pmove.GenerateMatrix(matrix, 360000, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix %s (synthetic): %d rows, %d nnz, avg bandwidth %.0f\n\n",
		matrix, base.Rows, base.NNZ(), base.AvgBandwidth())

	fmt.Printf("%-8s %-6s %10s %12s %12s %12s %9s\n",
		"order", "algo", "time (s)", "scalar DP", "AVX512 DP", "mem instr", "GFLOP/s")
	totals := map[pmove.Ordering]float64{}
	for _, ord := range []pmove.Ordering{pmove.OrderNone, pmove.OrderRCM} {
		mat, _, err := pmove.Reorder(base, ord, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, algo := range []pmove.SpMVAlgorithm{pmove.AlgoMKL, pmove.AlgoMerge} {
			// Real computation first: verify the kernels agree.
			x := make([]float64, mat.Cols)
			y := make([]float64, mat.Rows)
			for i := range x {
				x[i] = 1
			}
			if err := pmove.SpMV(mat, algo, x, y, threads); err != nil {
				log.Fatal(err)
			}

			// Scenario B observation with the Fig 7 event set, repeated
			// so the phase spans many sampling intervals.
			spec, err := spmv.DeriveWorkloadRepeated(sys, mat, algo, threads, 100)
			if err != nil {
				log.Fatal(err)
			}
			res, err := d.ObserveContext(ctx, pmove.ObserveRequest{
				Host:     sys.Hostname,
				Workload: spec,
				Command:  fmt.Sprintf("spmv --algo %s --order %s", algo, ord),
				Threads:  threads,
				Pin:      pmove.PinBalanced,
				GenericEvents: []string{
					abst.GenericScalarDouble, abst.GenericAVX512Double,
					abst.GenericTotalMemOps, abst.GenericEnergy,
				},
				FreqHz: 10,
			})
			if err != nil {
				log.Fatal(err)
			}
			e := res.Execution
			fmt.Printf("%-8s %-6s %10.4f %12.3e %12.3e %12.3e %9.2f\n",
				ord, algo, e.Duration,
				float64(e.TotalTruth("FP_ARITH:SCALAR_DOUBLE")),
				float64(e.TotalTruth("FP_ARITH:512B_PACKED_DOUBLE")),
				float64(e.TotalTruth("MEM_INST_RETIRED:ALL_LOADS")+e.TotalTruth("MEM_INST_RETIRED:ALL_STORES")),
				e.GFLOPS)
			totals[ord] += e.Duration
		}
	}
	fmt.Printf("\ntotal original %.4fs, rcm %.4fs -> rcm is %.1f%% faster (paper: ~22%%)\n",
		totals[pmove.OrderNone], totals[pmove.OrderRCM],
		(totals[pmove.OrderNone]-totals[pmove.OrderRCM])/totals[pmove.OrderNone]*100)

	// Every phase left an ObservationInterface in the KB with recall
	// queries.
	k, err := d.KB(sys.Hostname)
	if err != nil {
		log.Fatal(err)
	}
	obs := k.Observations()
	fmt.Printf("\n%d observations attached to the KB; first recall query:\n  %s\n",
		len(obs), obs[0].Queries()[0])
}
