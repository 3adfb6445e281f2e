package experiments

import (
	"context"
	"fmt"

	"pmove/internal/kernels"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// Fig5Row is the sampling overhead of one kernel at one frequency.
type Fig5Row struct {
	Host        string
	Kernel      string
	FreqHz      float64
	BaseSeconds float64 // mean unsampled duration
	SampSeconds float64 // mean sampled duration
	OverheadPct float64
}

// Fig5Result reproduces Fig 5: "Overhead caused by profiling six
// likwid-bench kernels (executions repeated 5 times, the run-times
// averaged)". Negative overheads occur when the sampling cost is below
// the run-to-run variance, exactly as in the paper.
type Fig5Result struct {
	Rows []Fig5Row
	Reps int
}

// Fig5 measures kernel completion times with and without PMU sampling.
func Fig5(host string, freqs []float64, reps int) (*Fig5Result, error) {
	if len(freqs) == 0 {
		freqs = []float64{2, 8, 32}
	}
	if reps <= 0 {
		reps = 5
	}
	res := &Fig5Result{Reps: reps}
	for _, kname := range kernels.LikwidKernels() {
		// Baseline: no sampling. A fresh machine per arm keeps the PMU
		// and clock state identical; distinct seeds give the run-to-run
		// variance the paper observes between repetitions.
		base, err := fig5Arm(host, kname, 0, reps, 101)
		if err != nil {
			return nil, err
		}
		for _, freq := range freqs {
			samp, err := fig5Arm(host, kname, freq, reps, 202+uint64(freq))
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Fig5Row{
				Host: host, Kernel: kname, FreqHz: freq,
				BaseSeconds: base, SampSeconds: samp,
				OverheadPct: (samp - base) / base * 100,
			})
		}
	}
	return res, nil
}

// fig5Arm runs one kernel reps times, with sampling at freq (0 = off),
// and returns the mean duration.
func fig5Arm(host, kname string, freq float64, reps int, seed uint64) (float64, error) {
	total := 0.0
	for rep := 0; rep < reps; rep++ {
		m, pm, err := newTarget(host, seed+uint64(rep)*13)
		if err != nil {
			return 0, err
		}
		sys := m.System()
		events := selectEvents(m, 4)
		if err := m.ProgramAll(events); err != nil {
			return 0, err
		}
		spec, err := kernels.Likwid(kname, topo.ISAScalar, 8<<20, 1200)
		if err != nil {
			return 0, err
		}
		pinning, err := topo.Pin(sys, topo.PinBalanced, 4)
		if err != nil {
			return 0, err
		}
		exec, err := m.Launch(spec, pinning)
		if err != nil {
			return 0, err
		}
		if freq > 0 {
			metrics := make([]string, len(events))
			for i, ev := range events {
				metrics[i] = telemetry.MetricForEvent(ev)
			}
			col := telemetry.NewCollector(tsdb.New(), telemetry.DefaultPipeline())
			sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
				Metrics: metrics, FreqHz: freq, Tag: "fig5",
			})
			if err != nil {
				return 0, err
			}
			ticks := uint64(exec.Duration*freq) + 1
			if _, err := sess.RunTicksContext(context.Background(), ticks); err != nil {
				return 0, err
			}
		}
		if err := m.Wait(exec); err != nil {
			return 0, err
		}
		total += exec.Duration
	}
	return total / float64(reps), nil
}

// Render formats the overhead table.
func (r *Fig5Result) Render() string {
	tw := newTableWriter(
		fmt.Sprintf("Fig 5: sampling overhead (%d reps averaged; negative = below run variance)", r.Reps),
		"%-5s %-10s %5s %14s %14s %10s\n",
		"Host", "Kernel", "Freq", "base (s)", "sampled (s)", "overhead")
	for _, row := range r.Rows {
		tw.row(row.Host, row.Kernel, fmtF(row.FreqHz),
			fmt.Sprintf("%.6f", row.BaseSeconds), fmt.Sprintf("%.6f", row.SampSeconds),
			fmt.Sprintf("%+.4f%%", row.OverheadPct))
	}
	return tw.String()
}
