package core

import (
	"context"
	"fmt"

	"pmove/internal/carm"
	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/topo"
)

// RunSTREAMContext executes the STREAM benchmark through the
// BenchmarkInterface path: "P-MoVE first copies the benchmark source
// codes to the target system … After the benchmark, P-MoVE parses the
// results and creates a BenchmarkInterface with the corresponding
// BenchmarkResult." Cancellation is honored between kernels.
func (d *Daemon) RunSTREAMContext(ctx context.Context, host string, threads int) (_ *kb.Benchmark, err error) {
	ctx, done := d.opStart(ctx, "stream")
	defer func() { done(err) }()
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	isa := t.System.CPU.WidestISA()
	arrayBytes := int64(64 << 20) // DRAM-resident, STREAM rules
	specs, err := kernels.STREAM(isa, arrayBytes, 4)
	if err != nil {
		return nil, err
	}
	pinning, err := topo.Pin(t.System, topo.PinBalanced, threads)
	if err != nil {
		return nil, err
	}
	start := int64(t.Machine.Now() * 1e9)
	bench := &kb.Benchmark{
		ID: "bench:" + d.nextTag(k), Type: "BenchmarkInterface",
		Host: host, Name: "stream", Compiler: preferredCompiler(t.System),
		StartNanos: start,
	}
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: stream %s: %w", host, err)
		}
		exec, err := t.Machine.Run(spec, pinning)
		if err != nil {
			return nil, fmt.Errorf("core: stream %s: %w", spec.Name, err)
		}
		bench.Results = append(bench.Results, kb.BenchmarkResult{
			Metric: "bandwidth", Value: exec.GBps, Unit: "GB/s",
			Params: map[string]string{"kernel": spec.Name, "threads": fmt.Sprintf("%d", threads)},
		})
	}
	bench.EndNanos = int64(t.Machine.Now() * 1e9)
	if err := d.attachAndPersist(k, bench); err != nil {
		return nil, err
	}
	return bench, nil
}

// RunHPCGContext executes the HPCG proxy benchmark.
func (d *Daemon) RunHPCGContext(ctx context.Context, host string, threads, n int) (_ *kb.Benchmark, err error) {
	ctx, done := d.opStart(ctx, "hpcg")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: hpcg %s: %w", host, err)
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	pinning, err := topo.Pin(t.System, topo.PinNUMABalanced, threads)
	if err != nil {
		return nil, err
	}
	spec := kernels.HPCGProxy(n)
	start := int64(t.Machine.Now() * 1e9)
	exec, err := t.Machine.Run(spec, pinning)
	if err != nil {
		return nil, err
	}
	bench := &kb.Benchmark{
		ID: "bench:" + d.nextTag(k), Type: "BenchmarkInterface",
		Host: host, Name: "hpcg", Compiler: preferredCompiler(t.System),
		StartNanos: start, EndNanos: int64(t.Machine.Now() * 1e9),
		Results: []kb.BenchmarkResult{{
			Metric: "gflops", Value: exec.GFLOPS, Unit: "GFLOP/s",
			Params: map[string]string{"n": fmt.Sprintf("%d", n), "threads": fmt.Sprintf("%d", threads)},
		}},
	}
	if err := d.attachAndPersist(k, bench); err != nil {
		return nil, err
	}
	return bench, nil
}

// ConstructCARMContext builds (or recalls) the CARM model for a host at
// the given ISA and thread count. The KB caches microbenchmark results,
// "allowing for a re-construction of the CARM plot without the need to
// re-run all the microbenchmarks".
func (d *Daemon) ConstructCARMContext(ctx context.Context, host string, isa topo.ISA, threads int) (_ *carm.Model, err error) {
	ctx, done := d.opStart(ctx, "carm_construct")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: carm %s: %w", host, err)
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	// Cache lookup: the benchmark list is daemon-shared KB state, so read
	// it under the same lock that guards attachments.
	want := map[string]string{"isa": string(isa), "threads": fmt.Sprintf("%d", threads)}
	d.kbMu.Lock()
	cached := k.Benchmarks("carm")
	d.kbMu.Unlock()
	for _, b := range cached {
		if _, ok := b.Result("peak_flops", want); ok {
			return carm.FromBenchmark(b)
		}
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	start := int64(t.Machine.Now() * 1e9)
	model, err := carm.Construct(t.Machine, isa, threads, topo.PinBalanced)
	if err != nil {
		return nil, err
	}
	bench := model.ToBenchmark("bench:"+d.nextTag(k), start, int64(t.Machine.Now()*1e9))
	if err := d.attachAndPersist(k, bench); err != nil {
		return nil, err
	}
	return model, nil
}

// preferredCompiler picks the compiler recorded in the KB environment
// ("it first compiles the benchmarks on the target system using a
// preferred compiler, e.g., icc or gcc").
func preferredCompiler(sys *topo.System) string {
	if _, ok := sys.Env["icc"]; ok {
		return "icc"
	}
	return "gcc"
}
