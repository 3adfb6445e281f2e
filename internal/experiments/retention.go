package experiments

import (
	"context"
	"fmt"

	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// RetentionRow is one retention configuration's storage outcome.
type RetentionRow struct {
	RetentionSeconds float64 // 0 = keep forever
	FreqHz           float64
	DurationSeconds  float64
	PointsStored     uint64
	PointsDropped    int
	StoredFraction   float64
}

// RetentionResult reproduces the §V-B storage discussion: "On a large
// cluster sampling with a high frequency can easily overwhelm the KB …
// For these cases, we rely on the retention policy of InfluxDB which
// describes for how long the DB keeps data."
type RetentionResult struct {
	Rows []RetentionRow
}

// RetentionStudy samples an skx target at freqHz for durationSeconds
// under several retention policies, enforcing the policy once per virtual
// second (the real DB's enforcement interval), and reports how much data
// survives.
func RetentionStudy(freqHz, durationSeconds float64, retentions []float64) (*RetentionResult, error) {
	if len(retentions) == 0 {
		retentions = []float64{0, 60, 10}
	}
	res := &RetentionResult{}
	for _, ret := range retentions {
		m, pm, err := newTarget("skx", 3)
		if err != nil {
			return nil, err
		}
		events := selectEvents(m, 2)
		if err := m.ProgramAll(events); err != nil {
			return nil, err
		}
		metrics := make([]string, len(events))
		for i, ev := range events {
			metrics[i] = telemetry.MetricForEvent(ev)
		}
		db := tsdb.New()
		if ret > 0 {
			db.SetRetention(tsdb.RetentionPolicy{Name: "study", Duration: int64(ret * 1e9)})
		}
		col := telemetry.NewCollector(db, telemetry.DefaultPipeline())
		sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
			Metrics: metrics, FreqHz: freqHz,
		})
		if err != nil {
			return nil, err
		}
		// Drive second by second so enforcement interleaves with writes.
		dropped := 0
		ticksPerSec := uint64(freqHz)
		for s := 0.0; s < durationSeconds; s++ {
			if _, err := sess.RunTicksContext(context.Background(), ticksPerSec); err != nil {
				return nil, err
			}
			dropped += db.EnforceRetention(int64(m.Now() * 1e9))
		}
		points, _ := db.Stats()
		stored := uint64(0)
		for _, meas := range db.Measurements() {
			n, _ := db.CountValues(meas)
			stored += n
		}
		row := RetentionRow{
			RetentionSeconds: ret, FreqHz: freqHz, DurationSeconds: durationSeconds,
			PointsStored: stored, PointsDropped: dropped,
		}
		if points > 0 {
			row.StoredFraction = float64(stored) / float64(points*uint64(len(averageDomain(m, metrics))))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// averageDomain returns a representative field list (for the fraction
// denominator); per-CPU metrics dominate so the thread list is used.
func averageDomain(m interface{ InstanceDomainSize(string) int }, metrics []string) []struct{} {
	if len(metrics) == 0 {
		return nil
	}
	return make([]struct{}, m.InstanceDomainSize(metrics[0]))
}

// Render formats the study.
func (r *RetentionResult) Render() string {
	tw := newTableWriter(
		"Retention study (§V-B): stored values under different retention policies",
		"%-14s %6s %10s %14s %14s\n",
		"retention", "freq", "duration", "values stored", "rows dropped")
	for _, row := range r.Rows {
		ret := "forever"
		if row.RetentionSeconds > 0 {
			ret = fmt.Sprintf("%.0fs", row.RetentionSeconds)
		}
		tw.row(ret, fmtF(row.FreqHz), fmt.Sprintf("%.0fs", row.DurationSeconds),
			fmt.Sprintf("%d", row.PointsStored), fmt.Sprintf("%d", row.PointsDropped))
	}
	return tw.String()
}
