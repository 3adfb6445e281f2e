package experiments

import (
	"context"
	"fmt"
	"sort"

	"pmove/internal/kernels"
	"pmove/internal/pmu"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// Fig4Row is the relative error between sampled and ground-truth counts
// for one host/kernel/frequency configuration.
type Fig4Row struct {
	Host   string
	Kernel string
	FreqHz float64
	// FlopsErr and BytesErr are relative errors ((sampled-truth)/truth) of
	// the FLOP count and the data volume, the Fig 4 quantities.
	FlopsErr float64
	BytesErr float64
}

// Fig4Result reproduces Fig 4: "Errors btw. sampled metrics and
// likwid-bench values", averaged over the six likwid kernels per
// frequency.
type Fig4Result struct {
	Rows []Fig4Row
}

// fig4Events returns the FLOP and memory events of a vendor, as described
// in §V-A: data volume from loads+stores (×8 bytes on zen3), FLOPs from
// RETIRED_SSE_AVX_FLOPS:ANY on zen3 and FP_ARITH:SCALAR_DOUBLE on
// skx/icl.
func fig4Events(vendor topo.Vendor) (flopsEv string, loadEv, storeEv string) {
	if vendor == topo.VendorAMD {
		return pmu.AMDFlopsAny, pmu.AMDLoads, pmu.AMDStores
	}
	return pmu.IntelScalarDouble, pmu.IntelLoads, pmu.IntelStores
}

// Fig4 runs the six likwid-bench kernels on each host while sampling at
// each frequency, then compares the final sampled cumulative counts with
// the engine's exact ground truth (likwid-bench's role).
func Fig4(hosts []string, freqs []float64) (*Fig4Result, error) {
	if len(hosts) == 0 {
		hosts = []string{"skx", "icl", "zen3"}
	}
	if len(freqs) == 0 {
		freqs = []float64{2, 8, 32}
	}
	res := &Fig4Result{}
	for _, host := range hosts {
		for _, freq := range freqs {
			for _, kname := range kernels.LikwidKernels() {
				row, err := fig4One(host, kname, freq)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

func fig4One(host, kname string, freq float64) (Fig4Row, error) {
	m, pm, err := newTarget(host, 41+uint64(freq))
	if err != nil {
		return Fig4Row{}, err
	}
	sys := m.System()
	flopsEv, loadEv, storeEv := fig4Events(sys.CPU.Vendor)
	events := []string{flopsEv, loadEv, storeEv}
	if err := m.ProgramAll(events); err != nil {
		return Fig4Row{}, err
	}
	// Scalar kernels so FP_ARITH:SCALAR_DOUBLE carries the FLOPs on Intel.
	// Sized to run for a few seconds so several sampling intervals elapse.
	spec, err := kernels.Likwid(kname, topo.ISAScalar, 8<<20, 2500)
	if err != nil {
		return Fig4Row{}, err
	}
	pinning, err := topo.Pin(sys, topo.PinBalanced, 4)
	if err != nil {
		return Fig4Row{}, err
	}
	metrics := make([]string, len(events))
	for i, ev := range events {
		metrics[i] = telemetry.MetricForEvent(ev)
	}
	db := tsdb.New()
	col := telemetry.NewCollector(db, telemetry.DefaultPipeline())
	sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: freq, Tag: "fig4",
	})
	if err != nil {
		return Fig4Row{}, err
	}
	exec, err := m.Launch(spec, pinning)
	if err != nil {
		return Fig4Row{}, err
	}
	ticks := uint64(exec.Duration*freq) + 1
	if _, err := sess.RunTicksContext(context.Background(), ticks); err != nil {
		return Fig4Row{}, err
	}
	if err := m.Wait(exec); err != nil {
		return Fig4Row{}, err
	}

	sampled := func(ev string) float64 {
		meas := tsdb.MeasurementName(telemetry.MetricForEvent(ev))
		q := &tsdb.Query{Fields: []string{"*"}, Measurement: meas, TagFilter: map[string]string{"tag": "fig4"}}
		r, err := db.ExecuteContext(context.Background(), tsdb.QueryRequest{Query: q})
		if err != nil || len(r.Rows) == 0 {
			return 0
		}
		// Cumulative counters are monotonic, so the largest value per field
		// is the final reading; batched zeros and lost ticks only remove
		// information.
		best := map[string]float64{}
		for _, row := range r.Rows {
			for f, v := range row.Values {
				if v > best[f] {
					best[f] = v
				}
			}
		}
		sum := 0.0
		for _, v := range best {
			sum += v
		}
		return sum
	}

	truth := func(ev string) float64 { return float64(exec.TotalTruth(ev)) }

	sf, tf := sampled(flopsEv), truth(flopsEv)
	sb := sampled(loadEv) + sampled(storeEv)
	tb := truth(loadEv) + truth(storeEv)
	row := Fig4Row{Host: host, Kernel: kname, FreqHz: freq}
	if tf > 0 {
		row.FlopsErr = (sf - tf) / tf
	}
	if tb > 0 {
		row.BytesErr = (sb - tb) / tb
	}
	return row, nil
}

// Averaged collapses rows to per-host-per-frequency means over kernels,
// matching the figure's "averaged kernel errors".
func (r *Fig4Result) Averaged() []Fig4Row {
	type key struct {
		host string
		freq float64
	}
	agg := map[key][]Fig4Row{}
	var order []key
	for _, row := range r.Rows {
		k := key{row.Host, row.FreqHz}
		if _, ok := agg[k]; !ok {
			order = append(order, k)
		}
		agg[k] = append(agg[k], row)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].host != order[j].host {
			return order[i].host < order[j].host
		}
		return order[i].freq < order[j].freq
	})
	var out []Fig4Row
	for _, k := range order {
		rows := agg[k]
		var fe, be float64
		for _, row := range rows {
			fe += row.FlopsErr
			be += row.BytesErr
		}
		out = append(out, Fig4Row{
			Host: k.host, Kernel: "avg", FreqHz: k.freq,
			FlopsErr: fe / float64(len(rows)), BytesErr: be / float64(len(rows)),
		})
	}
	return out
}

// Render formats the per-kernel and averaged errors.
func (r *Fig4Result) Render() string {
	tw := newTableWriter(
		"Fig 4: relative errors between sampled metrics and ground truth (positive=overcount)",
		"%-5s %-10s %5s %12s %12s\n", "Host", "Kernel", "Freq", "FLOPs err", "bytes err")
	for _, row := range r.Rows {
		tw.row(row.Host, row.Kernel, fmtF(row.FreqHz),
			fmt.Sprintf("%+.4f%%", row.FlopsErr*100), fmt.Sprintf("%+.4f%%", row.BytesErr*100))
	}
	out := tw.String() + "\naveraged over kernels:\n"
	for _, row := range r.Averaged() {
		out += fmt.Sprintf("  %-5s f=%-4s flops %+.4f%%  bytes %+.4f%%\n",
			row.Host, fmtF(row.FreqHz), row.FlopsErr*100, row.BytesErr*100)
	}
	return out
}
