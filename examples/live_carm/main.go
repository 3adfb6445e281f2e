// live_carm demonstrates the §IV-B/V-E feature: construct the cache-aware
// roofline model of a target from auto-configured microbenchmarks (cached
// in the KB), then profile the likwid Triad, PeakFlops and DDOT kernels
// against the live-CARM roofs in real time, rendering the panel as text.
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
	sys := pmove.MustPreset(pmove.PresetCSL)
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: 3}, pmove.DefaultPipeline()); err != nil {
		log.Fatal(err)
	}
	if _, err := d.ProbeContext(ctx, sys.Hostname); err != nil {
		log.Fatal(err)
	}

	threads := 8
	isa := sys.CPU.WidestISA()
	model, err := d.ConstructCARMContext(ctx, sys.Hostname, isa, threads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CARM for %s (%s, %d threads): peak %.1f GFLOP/s\n", model.Host, model.ISA, model.Threads, model.PeakGFLOPS)
	for _, lvl := range []pmove.CacheLevel{pmove.L1, pmove.L2, pmove.L3, pmove.DRAM} {
		fmt.Printf("  %-4s %8.1f GB/s\n", lvl, model.MemGBps[lvl])
	}

	// A second construction is answered from the KB cache — no re-run of
	// the microbenchmarks (§IV-B1).
	if _, err := d.ConstructCARMContext(ctx, sys.Hostname, isa, threads); err != nil {
		log.Fatal(err)
	}
	k, _ := d.KB(sys.Hostname)
	fmt.Printf("KB carries %d CARM benchmark entr(y/ies) — reconstruction is cache-served\n\n", len(k.Benchmarks("carm")))

	// Live profiling: the Fig 9 kernels with their paper working sets.
	l1 := int64(32 << 10)
	l2 := int64(1 << 20)
	mkPhase := func(name string, wss int64) pmove.LiveCARMPhase {
		itersPerSweep := wss / 8 / int64(isa.VectorWidth())
		sweeps := int(1e8/float64(itersPerSweep)) + 1
		spec, err := pmove.LikwidKernel(name, isa, wss, sweeps)
		if err != nil {
			log.Fatal(err)
		}
		return pmove.LiveCARMPhase{Label: name, Workload: spec}
	}
	phases := []pmove.LiveCARMPhase{
		mkPhase("triad", l2/2),      // does not fit L1 -> bounded by the L2 roof
		mkPhase("peakflops", 4<<10), // register-resident -> FP ceiling
		mkPhase("ddot", l1/2),       // L1-resident -> surpasses the L2 roof
	}
	res, err := d.LiveCARMContext(ctx, pmove.LiveCARMRequest{Host: sys.Hostname, Model: model, Phases: phases, Threads: threads, FreqHz: 50})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(pmove.RenderCARM(model, res.Panel.Points(), 72, 18))
	fmt.Printf("\n%-11s %6s %12s %14s %9s\n", "kernel", "points", "median AI", "median GFLOP/s", "bound by")
	for _, s := range res.Summaries {
		fmt.Printf("%-11s %6d %12.4f %14.2f %9s\n",
			s.Label, s.N, s.MedianAI, s.MedianGF, model.BoundingLevel(s.MedianAI, s.MedianGF))
	}
}
