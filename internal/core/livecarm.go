package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pmove/internal/carm"
	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// gpuObservation builds the ObservationInterface for an ncu-wrapped GPU
// kernel run.
func gpuObservation(host, tag, kernelName string, gpuID int, measurements []string, ts int64) *kb.Observation {
	sort.Strings(measurements)
	obs := &kb.Observation{
		ID:         "obs:" + tag,
		Type:       "ObservationInterface",
		Tag:        tag,
		Host:       host,
		Command:    "ncu --wrapper " + kernelName,
		StartNanos: ts,
		EndNanos:   ts,
	}
	for _, m := range measurements {
		obs.Metrics = append(obs.Metrics, kb.MetricRef{
			Measurement: m,
			Fields:      []string{fmt.Sprintf("_gpu%d", gpuID)},
		})
	}
	return obs
}

// LiveCARMPhase is one labelled execution phase fed to the live panel
// (e.g. "mkl/original", "merge/rcm" in Fig 8; "triad" in Fig 9).
type LiveCARMPhase struct {
	Label    string
	Workload machine.WorkloadSpec
}

// LiveCARMResult carries the panel and its per-phase summaries.
type LiveCARMResult struct {
	Model     *carm.Model
	Panel     *carm.LivePanel
	Summaries []carm.Summary
}

// LiveCARMRequest configures a live-CARM run, mirroring ObserveRequest
// so new knobs are fields rather than parameters.
type LiveCARMRequest struct {
	// Host is the attached target.
	Host string
	// Model is the constructed CARM to plot against.
	Model *carm.Model
	// Phases are the labelled kernels to execute in sequence.
	Phases []LiveCARMPhase
	// Threads is the software thread count (balanced pinning).
	Threads int
	// FreqHz is the PMU sampling frequency.
	FreqHz float64
}

// LiveCARMContext runs a sequence of labelled kernels while sampling the
// FP/memory PMU events of the target's vendor at FreqHz, feeding every
// snapshot into a live-CARM panel over the given model. This is the
// §IV-B2 feature: "PMU-based metrics are sampled on a time-stamp basis and
// used to plot the application points in real time on the generated CARM."
// Cancelling ctx stops between ticks and phases.
func (d *Daemon) LiveCARMContext(ctx context.Context, req LiveCARMRequest) (_ *LiveCARMResult, err error) {
	ctx, done := d.opStart(ctx, "livecarm")
	defer func() { done(err) }()
	host, model := req.Host, req.Model
	phases, threads, freqHz := req.Phases, req.Threads, req.FreqHz
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: live-CARM %s: %w", host, err)
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("core: live-CARM needs at least one phase")
	}
	if freqHz <= 0 {
		return nil, fmt.Errorf("core: live-CARM sampling frequency must be positive")
	}
	vendor := t.System.CPU.Vendor
	events := carm.EventsNeeded(vendor)
	if err := t.Machine.ProgramAll(events); err != nil {
		return nil, err
	}
	pinning, err := topo.Pin(t.System, topo.PinBalanced, threads)
	if err != nil {
		return nil, err
	}
	panel := carm.NewLivePanel(model, vendor)

	read := func() (carm.Reading, error) {
		r := carm.Reading{TimeNanos: int64(t.Machine.Now() * 1e9), Events: map[string]uint64{}}
		for _, hw := range pinning {
			tp, err := t.Machine.ThreadPMU(hw)
			if err != nil {
				return carm.Reading{}, err
			}
			for _, ev := range events {
				v, err := tp.Read(ev)
				if err != nil {
					return carm.Reading{}, err
				}
				r.Events[ev] += v
			}
		}
		t.Machine.ChargeSamplingCost(len(pinning) * len(events))
		return r, nil
	}

	interval := 1 / freqHz
	for _, ph := range phases {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: live-CARM %s: %w", host, err)
		}
		exec, err := t.Machine.Launch(ph.Workload, pinning)
		if err != nil {
			return nil, fmt.Errorf("core: live-CARM phase %s: %w", ph.Label, err)
		}
		// Prime the panel with a reading at phase start so deltas stay
		// inside the phase.
		r0, err := read()
		if err != nil {
			return nil, err
		}
		panel.Feed(r0, ph.Label)
		ticks := int(math.Ceil(exec.Duration/interval)) + 1
		for i := 1; i <= ticks; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: live-CARM %s: %w", host, err)
			}
			target := exec.Start + float64(i)*interval
			if target > exec.End() {
				target = exec.End()
			}
			if err := t.Machine.AdvanceTo(target); err != nil {
				return nil, err
			}
			r, err := read()
			if err != nil {
				return nil, err
			}
			panel.Feed(r, ph.Label)
			if target >= exec.End() {
				break
			}
		}
		if err := t.Machine.Wait(exec); err != nil {
			return nil, err
		}
	}
	return &LiveCARMResult{Model: model, Panel: panel, Summaries: panel.Summarize()}, nil
}

// ObserveGPUKernelContext integrates an accelerator execution through the
// §III-D path: lacking live HW telemetry, "P-MoVE is tasked with creating
// a wrapper script for initiating the kernel launch and configuring ncu to
// record runtime HW performance events. Following these executions, it
// analyzes the output from ncu, integrating these comprehensive
// performance metrics into the KB through the ObservationInterface."
func (d *Daemon) ObserveGPUKernelContext(ctx context.Context, host string, gpuID int, kernelName string, metrics map[string]float64) (_ *telemetry.Sample, err error) {
	ctx, done := d.opStart(ctx, "observe_gpu")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: observe-gpu %s: %w", host, err)
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	var found bool
	for _, g := range t.System.GPUs {
		if g.ID == gpuID {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: host %s has no GPU %d", host, gpuID)
	}
	tag := d.nextTag(k)
	ts := int64(t.Machine.Now() * 1e9)
	sample := telemetry.Sample{Metric: "ncu", Values: map[string]float64{}}
	var refs []string
	var pts []tsdb.Point
	for name, v := range metrics {
		meas := "ncu_" + name
		field := fmt.Sprintf("_gpu%d", gpuID)
		sample.Values[field] = v
		pts = append(pts, telemetry.ToPoint(telemetry.Sample{
			Metric: meas, Values: map[string]float64{field: v},
		}, tag, ts))
		refs = append(refs, meas)
	}
	if err := d.TS.WriteBatchContext(ctx, pts); err != nil {
		return nil, err
	}
	obs := gpuObservation(host, tag, kernelName, gpuID, refs, ts)
	if err := d.attachAndPersist(k, obs); err != nil {
		return nil, err
	}
	return &sample, nil
}
