package experiments

import (
	"context"
	"fmt"
	"sort"

	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// Fig6Row is one agent's resource usage at one sampling interval.
type Fig6Row struct {
	Agent       string
	IntervalSec float64 // 1/k means k samples per second
	CPUPct      float64 // share of one core
	MemoryMB    float64
	NetKBps     float64
	DiskKBps    float64
}

// Fig6Result reproduces Fig 6: "System resource usage of metric shipment
// with kernel and PMU metrics on skx" — per-agent CPU and memory, plus
// pipeline network and disk rates, across sampling intervals.
type Fig6Result struct {
	Rows     []Fig6Row
	NMetrics int
	// PointsPerReport is the data points in one full report (the paper's
	// 50-metric configuration comprised 15,937 points on skx).
	PointsPerReport int
}

// Fig6 samples a broad metric set on an empty skx target over a duration
// at each frequency, reading the agents' resource accounting afterwards.
func Fig6(freqs []float64, durationSeconds float64) (*Fig6Result, error) {
	if len(freqs) == 0 {
		freqs = []float64{0.25, 0.5, 1, 2, 4, 8}
	}
	res := &Fig6Result{}
	for _, freq := range freqs {
		m, pm, err := newTarget("skx", 99)
		if err != nil {
			return nil, err
		}
		// The metric set: all software metrics + proc metrics + 2 PMU
		// metrics, approximating the paper's 50-metric configuration
		// ("P-MoVE employs … approximately 20 pmdalinux metrics, and 2
		// pmdaperfevent metrics at 1-second intervals").
		events := selectEvents(m, 2)
		if err := m.ProgramAll(events); err != nil {
			return nil, err
		}
		var metrics []string
		for _, ev := range events {
			metrics = append(metrics, telemetry.MetricForEvent(ev))
		}
		for _, a := range pm.Agents() {
			if a.Name() == telemetry.AgentPerfevent {
				continue
			}
			metrics = append(metrics, a.Metrics()...)
		}
		sort.Strings(metrics)
		res.NMetrics = len(metrics)

		col := telemetry.NewCollector(tsdb.New(), telemetry.DefaultPipeline())
		sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
			Metrics: metrics, FreqHz: freq, DurationSeconds: durationSeconds,
		})
		if err != nil {
			return nil, err
		}
		st, err := sess.RunContext(context.Background())
		if err != nil {
			return nil, err
		}
		if res.PointsPerReport == 0 && st.Ticks > 0 {
			res.PointsPerReport = int(st.Expected / st.Ticks)
		}

		netKBps := float64(col.NetBytes) / durationSeconds / 1024
		diskKBps := float64(col.DiskBytes) / durationSeconds / 1024
		type usageAgent interface {
			Usage() *telemetry.ResourceUsage
		}
		agents := append([]telemetry.Agent{}, pm.Agents()...)
		for _, a := range agents {
			ua, ok := a.(usageAgent)
			if !ok {
				continue
			}
			cpu, mem, _ := ua.Usage().Snapshot()
			res.Rows = append(res.Rows, Fig6Row{
				Agent: a.Name(), IntervalSec: 1 / freq,
				CPUPct:   cpu / durationSeconds * 100,
				MemoryMB: float64(mem) / (1 << 20),
				NetKBps:  0, DiskKBps: 0,
			})
		}
		// pmcd carries the shipment totals.
		cpu, mem, _ := pm.Usage().Snapshot()
		res.Rows = append(res.Rows, Fig6Row{
			Agent: telemetry.AgentPMCD, IntervalSec: 1 / freq,
			CPUPct:   cpu / durationSeconds * 100,
			MemoryMB: float64(mem) / (1 << 20),
			NetKBps:  netKBps,
			DiskKBps: diskKBps,
		})
	}
	return res, nil
}

// Render formats the usage table.
func (r *Fig6Result) Render() string {
	tw := newTableWriter(
		fmt.Sprintf("Fig 6: resource usage of metric shipment on skx (%d metrics, %d points/report)", r.NMetrics, r.PointsPerReport),
		"%-14s %10s %9s %10s %10s %10s\n",
		"Agent", "interval", "CPU %", "mem MB", "net KB/s", "disk KB/s")
	for _, row := range r.Rows {
		tw.row(row.Agent, fmt.Sprintf("1/%s", fmtF(1/row.IntervalSec)),
			fmt.Sprintf("%.3f", row.CPUPct), fmt.Sprintf("%.1f", row.MemoryMB),
			fmt.Sprintf("%.1f", row.NetKBps), fmt.Sprintf("%.1f", row.DiskKBps))
	}
	return tw.String()
}
