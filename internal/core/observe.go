package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/ontology"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// ontologyEntryProcess aliases the entry kind for readability at the
// instantiation site.
const ontologyEntryProcess = ontology.EntryProcess

// ObserveRequest configures a Scenario B run: "It requests an executable
// and its command-line parameters. Once these are provided, the PMUs are
// configured to report the requested metrics."
type ObserveRequest struct {
	Host string
	// Workload is the kernel to execute (the "script" generated to run the
	// requested kernel, expressed as a workload spec for the engine).
	Workload machine.WorkloadSpec
	// Command/Args are recorded in the observation metadata.
	Command string
	Args    []string
	// Threads and Pin control the generated affinity.
	Threads int
	Pin     topo.PinStrategy
	// GenericEvents are resolved through the Abstraction Layer into
	// hardware events for the target's microarchitecture.
	GenericEvents []string
	// HWEvents are sampled verbatim (in addition to resolved generics).
	HWEvents []string
	// SWMetrics are co-sampled system metrics (e.g. mem.numa.alloc_hit).
	SWMetrics []string
	// FreqHz is the PMU sampling frequency (HWTelemetry is high-frequency).
	FreqHz float64
	// WorkFactors optionally skew the per-thread work (one entry per
	// software thread): load-imbalanced kernels such as row-split SpMV on
	// heavy-tailed matrices supply their real partition shares here
	// (spmv.ThreadWorkFactors).
	WorkFactors []float64
}

// ObserveResult is the outcome of a Scenario B run.
type ObserveResult struct {
	Observation *kb.Observation
	Execution   *machine.Execution
	Stats       telemetry.SessionStats
	// Queries are the auto-generated retrieval statements (Listing 3).
	Queries []string
}

// ObserveContext runs Scenario B (Figure 3, B1–B8): configure the PMUs
// from the KB and abstraction layer, generate the pinned run script, start
// sampling, execute the kernel, stop sampling when it halts, and append an
// ObservationInterface linking the metadata to the time-series rows.
// Cancelling ctx stops the sampling loop at the next tick.
func (d *Daemon) ObserveContext(ctx context.Context, req ObserveRequest) (_ *ObserveResult, err error) {
	ctx, done := d.opStart(ctx, "observe")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: observe %s: %w", req.Host, err)
	}
	t, err := d.Target(req.Host)
	if err != nil {
		return nil, err
	}
	k, err := d.KB(req.Host)
	if err != nil {
		return nil, err
	}
	if req.FreqHz <= 0 {
		return nil, fmt.Errorf("core: observe: sampling frequency must be positive")
	}
	if req.Threads <= 0 {
		return nil, fmt.Errorf("core: observe: thread count must be positive")
	}
	if req.Pin == "" {
		req.Pin = topo.PinBalanced
	}

	// B1: resolve and program the hardware events.
	microarch := t.System.CPU.Microarch
	events := append([]string(nil), req.HWEvents...)
	if len(req.GenericEvents) > 0 {
		resolved, err := d.Registry.HardwareEvents(microarch, req.GenericEvents)
		if err != nil {
			return nil, fmt.Errorf("core: observe: %w", err)
		}
		events = append(events, resolved...)
	}
	events = dedupe(events)
	var coreEvents, raplEvents []string
	for _, ev := range events {
		def, ok := t.Machine.Catalog().Lookup(ev)
		if !ok {
			return nil, fmt.Errorf("core: observe: event %q not in %s catalog", ev, microarch)
		}
		if def.PMU == "rapl" {
			raplEvents = append(raplEvents, ev)
		} else {
			coreEvents = append(coreEvents, ev)
		}
	}
	if err := t.Machine.ProgramAll(coreEvents); err != nil {
		return nil, err
	}

	// Generate the affinity script from the probed topology.
	pinning, err := topo.Pin(t.System, req.Pin, req.Threads)
	if err != nil {
		return nil, err
	}

	// Metrics to sample: HW events + SW metrics.
	var metrics []string
	for _, ev := range append(append([]string(nil), coreEvents...), raplEvents...) {
		metrics = append(metrics, telemetry.MetricForEvent(ev))
	}
	metrics = append(metrics, req.SWMetrics...)
	metrics = dedupe(metrics)

	tag := d.nextTag(k)
	collector, err := d.openCollector(t)
	if err != nil {
		return nil, err
	}
	defer collector.CloseJournal()
	sess, err := telemetry.NewSession(t.PMCD, collector, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: req.FreqHz, Tag: tag,
	})
	if err != nil {
		return nil, err
	}

	// Launch the kernel and sample until it halts ("samples performance
	// events, executes the script to run a kernel on a target and stops
	// the sampling as the kernel is halted").
	start := t.Machine.Now()
	exec, err := t.Machine.LaunchSkewed(req.Workload, pinning, req.WorkFactors)
	if err != nil {
		return nil, err
	}
	ticks := uint64(math.Ceil(exec.Duration*req.FreqHz)) + 1
	stats, err := sess.RunTicksContext(ctx, ticks)
	if err != nil {
		return nil, err
	}
	if err := t.Machine.Wait(exec); err != nil {
		return nil, err
	}

	// B8: build and append the ObservationInterface, plus the freshly
	// re-instantiated ProcessInterface ("a ProcessInterface is
	// re-instantiated each time it is invoked, reflecting the processes'
	// dynamic nature").
	cmd := req.Command
	if cmd == "" {
		cmd = req.Workload.Name
	}
	proc := &kb.Process{
		ID:         "proc:" + tag,
		Type:       string(ontologyEntryProcess),
		Host:       req.Host,
		PID:        10000 + int(start*1000)%40000,
		Command:    cmd,
		StartNanos: int64(start * 1e9),
		Threads:    map[string]int{},
	}
	for i, hw := range pinning {
		proc.Threads[fmt.Sprintf("t%d", i)] = hw
	}
	obs := &kb.Observation{
		ID:          "obs:" + tag,
		Type:        "ObservationInterface",
		Tag:         tag,
		Host:        req.Host,
		Command:     cmd,
		Args:        req.Args,
		PinStrategy: string(req.Pin),
		Affinity:    pinning,
		StartNanos:  int64(start * 1e9),
		EndNanos:    int64(t.Machine.Now() * 1e9),
		FreqHz:      req.FreqHz,
	}
	for _, m := range metrics {
		obs.Metrics = append(obs.Metrics, kb.MetricRef{
			Measurement: tsdb.MeasurementName(m),
			Fields:      d.fieldsForMetric(t, m),
		})
	}
	obs.Report = fmt.Sprintf(
		"kernel %s on %d threads (%s): %.3fs at %.2f GHz, %.2f GFLOP/s, AI %.3f; sampled %d metrics at %g Hz (%.1f%% lost)",
		req.Workload.Name, req.Threads, req.Pin, exec.Duration, exec.FreqGHz,
		exec.GFLOPS, exec.AI, len(metrics), req.FreqHz, stats.LossPct)
	if err := d.attachAndPersist(k, proc, obs); err != nil {
		return nil, err
	}
	return &ObserveResult{
		Observation: obs,
		Execution:   exec,
		Stats:       stats,
		Queries:     obs.Queries(),
	}, nil
}

// RunScript renders the wrapper script Scenario B would generate on a real
// target: taskset-pinned execution between PCP sampling control commands.
func RunScript(req ObserveRequest, pinning []int) string {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n# generated by P-MoVE\n")
	fmt.Fprintf(&b, "pmcd_ctl start-sampling --freq %g\n", req.FreqHz)
	cpus := make([]string, len(pinning))
	for i, c := range pinning {
		cpus[i] = fmt.Sprintf("%d", c)
	}
	cmd := req.Command
	if cmd == "" {
		cmd = req.Workload.Name
	}
	fmt.Fprintf(&b, "taskset -c %s %s %s\n", strings.Join(cpus, ","), cmd, strings.Join(req.Args, " "))
	b.WriteString("pmcd_ctl stop-sampling\n")
	return b.String()
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
