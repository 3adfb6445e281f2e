// gpu_ncu demonstrates §III-D, "Adding Compute Devices to P-MoVE": a GPU
// is probed into the Knowledge Base as its own (sub)twin (Listing 4), its
// SW telemetry (NVML-style) is defined on the twin, and a kernel launch
// is observed through the ncu wrapper path — the recorded HW metrics land
// in the time-series store and an ObservationInterface links them to the
// KB.
package main

import (
	"context"
	"fmt"
	"log"

	"pmove"
)

func main() {
	ctx := context.Background()
	d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
	if err != nil {
		log.Fatal(err)
	}
	// A node with an attached NVIDIA-class GPU (the Listing 4 device).
	sys := pmove.WithGPU(pmove.MustPreset(pmove.PresetICL))
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: 13}, pmove.DefaultPipeline()); err != nil {
		log.Fatal(err)
	}
	kb, err := d.ProbeContext(ctx, sys.Hostname)
	if err != nil {
		log.Fatal(err)
	}

	// The GPU twin and its encoded telemetry.
	gpus := kb.NodesOfKind(pmove.KindGPU)
	if len(gpus) != 1 {
		log.Fatalf("expected one GPU twin, got %d", len(gpus))
	}
	g := gpus[0]
	fmt.Printf("GPU twin %s\n", g.ID)
	fmt.Printf("  model:  %v\n", g.Interface.Property("model"))
	fmt.Printf("  memory: %v\n", g.Interface.Property("memory"))
	fmt.Printf("  numa:   %v\n", g.Interface.Property("numa node"))
	for _, tel := range g.Interface.Telemetries("") {
		fmt.Printf("  %-12s %-14s sampler=%-42s db=%s\n", tel.Type, tel.Name, tel.SamplerName, tel.DBName)
	}

	// Observe a kernel through the ncu wrapper: "P-MoVE is tasked with
	// creating a wrapper script for initiating the kernel launch and
	// configuring ncu to record runtime HW performance events."
	metrics := map[string]float64{
		"gpu__compute_memory_access_throughput": 812.5, // GB/s
		"sm__throughput":                        61.2,  // % of peak
		"dram__bytes_read":                      3.2e9,
	}
	if _, err := d.ObserveGPUKernelContext(ctx, sys.Hostname, 0, "spmv_cuda", metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nobserved kernel spmv_cuda through the ncu wrapper")

	// The metrics are in the TSDB, recallable through the usual queries.
	res, err := d.TS.ExecuteContext(ctx, pmove.QueryRequest{Statement: `SELECT "_gpu0" FROM "ncu_gpu__compute_memory_access_throughput"`})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("ncu compute-memory throughput: %.1f GB/s at t=%dns\n", row.Values["_gpu0"], row.Time)
	}

	// And the ObservationInterface is in the KB.
	for _, o := range kb.Observations() {
		fmt.Printf("observation %s: %s (%d metric streams)\n", o.Tag, o.Command, len(o.Metrics))
	}
}
