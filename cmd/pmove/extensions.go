package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"pmove"
	"pmove/internal/anomaly"
	"pmove/internal/cluster"
	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/spmv"
	"pmove/internal/whatif"
)

// cmdWhatIf predicts a kernel on every preset and prints the upgrade
// recommendation.
func cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	baseline := fs.String("baseline", "icl", "baseline preset")
	kernel := fs.String("kernel", "triad", "likwid kernel")
	threads := fs.Int("threads", 8, "threads")
	wss := fs.Int64("wss", 64<<20, "working set bytes")
	fs.Parse(args)
	base, err := pmove.NewPreset(*baseline)
	if err != nil {
		return err
	}
	spec, err := pmove.LikwidKernel(*kernel, base.CPU.WidestISA(), *wss, 50)
	if err != nil {
		return err
	}
	rec, err := whatif.Recommend(*baseline, spec, *threads)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s: %.4fs, %.1f GFLOP/s, %s-bound\n",
		rec.Baseline.Host, rec.Baseline.Seconds, rec.Baseline.GFLOPS, rec.Baseline.Bottleneck)
	fmt.Printf("%-6s %9s %9s %10s %12s\n", "host", "time (s)", "speedup", "GFLOP/s", "bottleneck")
	for _, c := range rec.Ranked {
		fmt.Printf("%-6s %9.4f %8.2fx %10.1f %12s\n", c.Host, c.Seconds, c.Speedup, c.GFLOPS, c.Bottleneck)
	}
	fmt.Printf("\n%s\n", rec.Suggestion)
	return nil
}

// cmdScan observes an intentionally imbalanced SpMV and reports what the
// anomaly scanner finds, with root-cause paths from the KB.
func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	host := fs.String("host", "csl", "target preset")
	threads := fs.Int("threads", 8, "threads")
	fs.Parse(args)
	d, sys, err := daemonFor(*host, 1)
	if err != nil {
		return err
	}
	// Arrowhead matrix: genuine row-split imbalance.
	n := 1600
	var ri, ci []int
	var vs []float64
	for i := 0; i < n; i++ {
		deg := 4
		if i < n/8 {
			deg = n / 3
		}
		for dd := 0; dd < deg; dd++ {
			ri = append(ri, i)
			ci = append(ci, (i+dd*5+1)%n)
			vs = append(vs, 1)
		}
	}
	mat, err := spmv.FromTriplets("arrow", n, n, ri, ci, vs)
	if err != nil {
		return err
	}
	factors, err := spmv.ThreadWorkFactors(mat, spmv.AlgoMKL, *threads)
	if err != nil {
		return err
	}
	spec, err := spmv.DeriveWorkloadRepeated(sys, mat, spmv.AlgoMKL, *threads, 8000)
	if err != nil {
		return err
	}
	res, err := d.ObserveContext(context.Background(), pmove.ObserveRequest{
		Host: *host, Workload: spec, Command: "spmv --algo mkl --matrix arrow",
		Threads: *threads, Pin: pmove.PinBalanced,
		HWEvents: []string{"INSTRUCTION_RETIRED"}, FreqHz: 50,
		WorkFactors: factors,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n\n", res.Observation.Report)
	// Scope the scan to the pinned CPUs.
	var fields []string
	for _, hw := range res.Observation.Affinity {
		fields = append(fields, fmt.Sprintf("_cpu%d", hw))
	}
	scoped := *res.Observation
	scoped.Metrics = nil
	for _, m := range res.Observation.Metrics {
		if strings.HasPrefix(m.Measurement, "perfevent_hwcounters_") {
			scoped.Metrics = append(scoped.Metrics, kb.MetricRef{Measurement: m.Measurement, Fields: fields})
		}
	}
	findings, err := anomaly.DefaultScanner().ScanObservation(d.TS, &scoped)
	if err != nil {
		return err
	}
	k, err := d.KB(*host)
	if err != nil {
		return err
	}
	fmt.Print(anomaly.Report(k, findings))
	return nil
}

// cmdCluster runs a small batch on a simulated cluster and prints the job
// records.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	preset := fs.String("preset", "icl", "node preset")
	nodes := fs.Int("nodes", 4, "node count")
	jobs := fs.Int("jobs", 4, "jobs to submit")
	fs.Parse(args)
	c, err := cluster.New(*preset, *nodes, cluster.Interconnect{LinkGBs: 12.5, LatencyMicros: 2}, 1)
	if err != nil {
		return err
	}
	s := c.Scheduler()
	patterns := []cluster.CommPattern{cluster.CommHalo, cluster.CommAllReduce, cluster.CommAllToAll, cluster.CommNone}
	for i := 0; i < *jobs; i++ {
		sys := c.Nodes()[0].System
		spec, err := kernels.Likwid("triad", sys.CPU.WidestISA(), 4<<20, 300)
		if err != nil {
			return err
		}
		nreq := 1 + i%*nodes
		if _, err := s.Submit(cluster.Job{
			Name: fmt.Sprintf("job%d-%s", i, patterns[i%len(patterns)]), User: "cli",
			Nodes: nreq, ThreadsPerNode: 4, Workload: spec,
			Comm: cluster.CommSpec{Pattern: patterns[i%len(patterns)], BytesPerStep: 4 << 20, Steps: 100},
		}); err != nil {
			return err
		}
	}
	if err := s.Drain(3600); err != nil {
		return err
	}
	fmt.Printf("%-22s %5s %9s %9s %10s %10s\n", "job", "nodes", "wait (s)", "run (s)", "comm (s)", "GFLOP/s")
	for _, r := range s.Records() {
		fmt.Printf("%-22s %5d %9.4f %9.4f %10.4f %10.2f\n",
			r.Name, len(r.NodeNames), r.WaitSeconds(), r.ElapsedSeconds(), r.CommSecs, r.GFLOPSPerNode)
	}
	return nil
}
