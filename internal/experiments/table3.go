package experiments

import (
	"context"
	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// TableIIIRow is one configuration's throughput measurement.
type TableIIIRow struct {
	Host     string
	FreqHz   float64
	NMetrics int
	Expected uint64
	Inserted uint64
	Zeros    uint64
	LossPct  float64
	LZPct    float64
	Tput     float64
	ATput    float64
}

// TableIIIResult reproduces Table III: data points expected and observed
// at the host DB w.r.t. sampling frequency and metric count, on skx (88
// threads) and icl (16 threads).
type TableIIIResult struct {
	Rows            []TableIIIRow
	DurationSeconds float64
}

// TableIII runs the throughput/loss experiment: perfevent sampling of
// never-zero events across frequencies {2, 8, 32} Hz and metric counts
// {4, 5, 6}, shipped through the unbuffered pipeline.
func TableIII(durationSeconds float64) (*TableIIIResult, error) {
	res := &TableIIIResult{DurationSeconds: durationSeconds}
	for _, host := range []string{"skx", "icl"} {
		for _, freq := range []float64{2, 8, 32} {
			for _, nmt := range []int{4, 5, 6} {
				m, pm, err := newTarget(host, 7)
				if err != nil {
					return nil, err
				}
				events := selectEvents(m, nmt)
				if err := m.ProgramAll(events); err != nil {
					return nil, err
				}
				metrics := make([]string, len(events))
				for i, ev := range events {
					metrics[i] = telemetry.MetricForEvent(ev)
				}
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
				res.Rows = append(res.Rows, TableIIIRow{
					Host: host, FreqHz: freq, NMetrics: nmt,
					Expected: st.Expected, Inserted: st.Inserted, Zeros: st.Zeros,
					LossPct: st.LossPct, LZPct: st.LossPlusZPct,
					Tput: st.Tput, ATput: st.ATput,
				})
			}
		}
	}
	return res, nil
}

// Render formats the table in the paper's layout.
func (r *TableIIIResult) Render() string {
	tw := newTableWriter(
		"Table III: data points expected/observed at the host DB vs sampling freq and #metrics",
		"%-5s %5s %4v %10s %10s %10s %6s %6s %9s %9s\n",
		"Host", "Freq", "#mt", "Expected", "Inserted", "Zeros", "%L", "L+Z%", "Tput", "A.Tput")
	for _, row := range r.Rows {
		tw.row(row.Host, fmtF(row.FreqHz), row.NMetrics,
			sciNotation(float64(row.Expected)), sciNotation(float64(row.Inserted)),
			sciNotation(float64(row.Zeros)),
			fmt1(row.LossPct), fmt1(row.LZPct), fmt1(row.Tput), fmt1(row.ATput))
	}
	return tw.String()
}

func fmtF(f float64) string { return trimZeros(f) }

func fmt1(f float64) string {
	return trimTo1(f)
}
