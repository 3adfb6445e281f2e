package experiments

import (
	"context"
	"fmt"

	"pmove/internal/carm"
	"pmove/internal/core"
	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/spmv"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// Fig8Result reproduces Fig 8: the live-CARM panel during Intel MKL and
// Merge SpMV on hugetrace-00020, original vs RCM-reordered, on CSL.
type Fig8Result struct {
	Model     *carm.Model
	Summaries []carm.Summary
	Panel     *carm.LivePanel
}

// fig8Daemon builds a probed CSL daemon.
func fig8Daemon() (*core.Daemon, *topo.System, error) {
	sys := topo.MustPreset(topo.PresetCSL)
	d, err := core.NewWith(core.WithEnv(core.EnvFromOS()))
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.AttachTarget(sys, machine.Config{Seed: 21}, telemetry.DefaultPipeline()); err != nil {
		return nil, nil, err
	}
	if _, err := d.ProbeContext(context.Background(), sys.Hostname); err != nil {
		return nil, nil, err
	}
	return d, sys, nil
}

// Fig8 constructs the CARM for CSL, then feeds the four SpMV phases
// through the live panel.
func Fig8(scale Scale, threads int) (*Fig8Result, error) {
	ctx := context.Background()
	d, sys, err := fig8Daemon()
	if err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = sys.NumCores()
	}
	model, err := d.ConstructCARMContext(ctx, sys.Hostname, sys.CPU.WidestISA(), threads)
	if err != nil {
		return nil, err
	}
	base, err := spmv.Generate("hugetrace-00020", matrixRows("hugetrace-00020", scale), 5)
	if err != nil {
		return nil, err
	}
	var phases []core.LiveCARMPhase
	for _, ord := range []spmv.Ordering{spmv.OrderNone, spmv.OrderRCM} {
		mat, _, err := spmv.Reorder(base, ord, 3)
		if err != nil {
			return nil, err
		}
		for _, algo := range spmv.Algorithms() {
			spec, err := spmv.DeriveWorkloadRepeated(sys, mat, algo, threads, 30*spmvRepeats(mat.NNZ()))
			if err != nil {
				return nil, err
			}
			phases = append(phases, core.LiveCARMPhase{
				Label:    fmt.Sprintf("%s/%s", algo, ord),
				Workload: spec,
			})
		}
	}
	lc, err := d.LiveCARMContext(ctx, core.LiveCARMRequest{Host: sys.Hostname, Model: model, Phases: phases, Threads: threads, FreqHz: 50})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Model: model, Summaries: lc.Summaries, Panel: lc.Panel}, nil
}

// Summary returns the phase summary with the given label.
func (r *Fig8Result) Summary(label string) (carm.Summary, bool) {
	for _, s := range r.Summaries {
		if s.Label == label {
			return s, true
		}
	}
	return carm.Summary{}, false
}

// Render formats the panel and phase summaries.
func (r *Fig8Result) Render() string {
	out := "Fig 8: live-CARM during SpMV execution (hugetrace-00020, CSL)\n"
	out += carm.RenderASCII(r.Model, r.Panel.Points(), 72, 18)
	out += fmt.Sprintf("%-14s %6s %12s %14s\n", "phase", "points", "median AI", "median GFLOP/s")
	for _, s := range r.Summaries {
		out += fmt.Sprintf("%-14s %6d %12.4f %14.2f\n", s.Label, s.N, s.MedianAI, s.MedianGF)
	}
	return out
}

// Fig9Row is one benchmark's live-CARM placement.
type Fig9Row struct {
	Kernel        string
	TheoreticalAI float64
	MedianAI      float64
	MedianGF      float64
	// Bounding is the memory level whose roof bounds the observed points.
	Bounding topo.CacheLevel
}

// Fig9Result reproduces Fig 9: live-CARM during likwid benchmark
// execution — Triad (AI 0.625) below the L2 roof, PeakFlops (AI 2) at the
// FP roof, DDOT (AI 0.125, L1-resident) above the L2 roof.
type Fig9Result struct {
	Model *carm.Model
	Rows  []Fig9Row
	Panel *carm.LivePanel
}

// Fig9 profiles Triad, PeakFlops and DDOT against the live-CARM roofs.
func Fig9(threads int) (*Fig9Result, error) {
	ctx := context.Background()
	d, sys, err := fig8Daemon()
	if err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = sys.NumCores()
	}
	isa := sys.CPU.WidestISA()
	model, err := d.ConstructCARMContext(ctx, sys.Hostname, isa, threads)
	if err != nil {
		return nil, err
	}
	l1, _ := sys.Cache(topo.L1)
	l2, _ := sys.Cache(topo.L2)
	cases := []struct {
		name string
		wss  int64
	}{
		// Triad: "unable to surpass [the L2 roof] since the workload size
		// does not fit in the 32Kb L1 cache".
		{"triad", l2.SizeBytes / 2},
		// PeakFlops: register/L1-resident FMA chain.
		{"peakflops", 4 << 10},
		// DDOT: "utilizes smaller problem sizes, thus able to fit in the
		// L1 cache".
		{"ddot", l1.SizeBytes / 2},
	}
	var phases []core.LiveCARMPhase
	for _, c := range cases {
		// Size each phase to ~10^8 wide iterations so it spans many
		// sampling intervals and per-tick deltas dwarf counter noise.
		itersPerSweep := c.wss / 8 / int64(isa.VectorWidth())
		if itersPerSweep < 1 {
			itersPerSweep = 1
		}
		sweeps := int(1e8/float64(itersPerSweep)) + 1
		spec, err := kernels.Likwid(c.name, isa, c.wss, sweeps)
		if err != nil {
			return nil, err
		}
		phases = append(phases, core.LiveCARMPhase{Label: c.name, Workload: spec})
	}
	lc, err := d.LiveCARMContext(ctx, core.LiveCARMRequest{Host: sys.Hostname, Model: model, Phases: phases, Threads: threads, FreqHz: 50})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Model: model, Panel: lc.Panel}
	for _, c := range cases {
		ai, err := kernels.TheoreticalAI(c.name, isa)
		if err != nil {
			return nil, err
		}
		for _, s := range lc.Summaries {
			if s.Label == c.name {
				res.Rows = append(res.Rows, Fig9Row{
					Kernel: c.name, TheoreticalAI: ai,
					MedianAI: s.MedianAI, MedianGF: s.MedianGF,
					Bounding: model.BoundingLevel(s.MedianAI, s.MedianGF),
				})
			}
		}
	}
	return res, nil
}

// Render formats the benchmark placement table and the panel.
func (r *Fig9Result) Render() string {
	out := "Fig 9: live-CARM during likwid benchmark execution (CSL)\n"
	out += carm.RenderASCII(r.Model, r.Panel.Points(), 72, 18)
	out += fmt.Sprintf("%-11s %14s %11s %14s %10s\n", "kernel", "theoretical AI", "median AI", "median GFLOP/s", "bound by")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-11s %14.4f %11.4f %14.2f %10s\n",
			row.Kernel, row.TheoreticalAI, row.MedianAI, row.MedianGF, row.Bounding)
	}
	return out
}
