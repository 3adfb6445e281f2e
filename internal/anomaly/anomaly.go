// Package anomaly implements the automated anomaly detection the KB
// enables (paper §III-B: "Employing a tree-structured KB enables fully
// automated performance monitoring, anomaly detection and dashboards").
// Detectors scan the time-series rows an observation links to; findings
// name the component (via the field/instance name) so the focus view can
// "investigate the root cause of anomalies" along the path to the root.
package anomaly

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"pmove/internal/kb"
	"pmove/internal/tsdb"
)

// Severity grades a finding.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Finding is one detected anomaly.
type Finding struct {
	Detector    string
	Measurement string
	Field       string // instance, e.g. "_cpu17" — names the component twin
	TimeNanos   int64
	Value       float64
	Severity    Severity
	Message     string
}

// Series is one (time, value) sequence extracted for a field.
type Series struct {
	Measurement string
	Field       string
	Times       []int64
	Values      []float64
}

// Detector inspects one series and reports findings.
type Detector interface {
	Name() string
	Detect(s Series) []Finding
}

// Threshold flags values outside [Min, Max].
type Threshold struct {
	Min, Max float64
	Sev      Severity
}

// Name implements Detector.
func (t Threshold) Name() string { return "threshold" }

// Detect implements Detector.
func (t Threshold) Detect(s Series) []Finding {
	var out []Finding
	for i, v := range s.Values {
		if v < t.Min || v > t.Max {
			out = append(out, Finding{
				Detector: t.Name(), Measurement: s.Measurement, Field: s.Field,
				TimeNanos: s.Times[i], Value: v, Severity: t.Sev,
				Message: fmt.Sprintf("value %.4g outside [%.4g, %.4g]", v, t.Min, t.Max),
			})
		}
	}
	return out
}

// ZScore flags values more than K standard deviations from the series
// mean. Series shorter than MinSamples are skipped (no stable baseline).
type ZScore struct {
	K          float64
	MinSamples int
	Sev        Severity
}

// Name implements Detector.
func (z ZScore) Name() string { return "zscore" }

// Detect implements Detector.
func (z ZScore) Detect(s Series) []Finding {
	min := z.MinSamples
	if min < 4 {
		min = 4
	}
	if len(s.Values) < min {
		return nil
	}
	mean, std := meanStd(s.Values)
	if std == 0 {
		return nil
	}
	k := z.K
	if k == 0 {
		k = 3
	}
	var out []Finding
	for i, v := range s.Values {
		if math.Abs(v-mean)/std > k {
			out = append(out, Finding{
				Detector: z.Name(), Measurement: s.Measurement, Field: s.Field,
				TimeNanos: s.Times[i], Value: v, Severity: z.Sev,
				Message: fmt.Sprintf("|z| = %.1f (mean %.4g, std %.4g)", math.Abs(v-mean)/std, mean, std),
			})
		}
	}
	return out
}

// Stall flags cumulative counters that stop advancing: a window of
// consecutive identical readings on a counter that had been moving.
// This catches the frozen-sampler failure mode behind Table III's zeros.
type Stall struct {
	Window int
	Sev    Severity
}

// Name implements Detector.
func (d Stall) Name() string { return "stall" }

// Detect implements Detector.
func (d Stall) Detect(s Series) []Finding {
	w := d.Window
	if w < 3 {
		w = 3
	}
	if len(s.Values) < w+1 {
		return nil
	}
	moved := false
	run := 1
	var out []Finding
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i] == s.Values[i-1] {
			run++
			if moved && run == w {
				out = append(out, Finding{
					Detector: d.Name(), Measurement: s.Measurement, Field: s.Field,
					TimeNanos: s.Times[i], Value: s.Values[i], Severity: d.Sev,
					Message: fmt.Sprintf("counter frozen for %d consecutive samples", w),
				})
			}
		} else {
			if s.Values[i] > s.Values[i-1] {
				moved = true
			}
			run = 1
		}
	}
	return out
}

// Imbalance compares sibling instances of one measurement at each
// timestamp and flags instances persistently far from the per-timestamp
// median — the load-imbalance signal of the paper's introduction
// ("load imbalances … can result in up to a 100% difference in
// performance"). It is a cross-series detector, so it runs on the whole
// measurement rather than per series.
type Imbalance struct {
	// RelTolerance is the allowed relative deviation from the median.
	RelTolerance float64
	// MinFraction is the fraction of timestamps an instance must deviate
	// in before it is reported.
	MinFraction float64
	Sev         Severity
}

// Name identifies the detector.
func (d Imbalance) Name() string { return "imbalance" }

// DetectAcross runs over all series of one measurement.
func (d Imbalance) DetectAcross(series []Series) []Finding {
	if len(series) < 2 {
		return nil
	}
	tol := d.RelTolerance
	if tol == 0 {
		tol = 0.5
	}
	frac := d.MinFraction
	if frac == 0 {
		frac = 0.5
	}
	// Align by index (sessions sample all instances at the same ticks).
	n := len(series[0].Values)
	for _, s := range series {
		if len(s.Values) < n {
			n = len(s.Values)
		}
	}
	if n == 0 {
		return nil
	}
	deviant := make([]int, len(series))
	// Only timestamps with a usable (nonzero) median are comparable:
	// zero-batch rows from the §V-A transmission artefacts are skipped.
	comparable := 0
	for i := 0; i < n; i++ {
		vals := make([]float64, len(series))
		for j, s := range series {
			vals[j] = s.Values[i]
		}
		med := median(vals)
		if med == 0 {
			continue
		}
		comparable++
		for j := range series {
			if math.Abs(vals[j]-med)/math.Abs(med) > tol {
				deviant[j]++
			}
		}
	}
	if comparable == 0 {
		return nil
	}
	var out []Finding
	for j, s := range series {
		if float64(deviant[j]) >= frac*float64(comparable) {
			out = append(out, Finding{
				Detector: d.Name(), Measurement: s.Measurement, Field: s.Field,
				TimeNanos: s.Times[n-1], Severity: d.Sev,
				Message: fmt.Sprintf("instance deviates from the sibling median in %d/%d samples", deviant[j], comparable),
			})
		}
	}
	return out
}

// Scanner binds detectors to a time-series database.
type Scanner struct {
	Detectors []Detector
	Imbalance *Imbalance
}

// DefaultScanner returns a scanner with the standard detector set.
func DefaultScanner() *Scanner {
	return &Scanner{
		Detectors: []Detector{
			ZScore{K: 4, MinSamples: 8, Sev: Warning},
			Stall{Window: 5, Sev: Critical},
		},
		Imbalance: &Imbalance{RelTolerance: 0.6, MinFraction: 0.6, Sev: Warning},
	}
}

// fetch extracts all per-field series of a measurement under a tag.
func fetch(db *tsdb.DB, measurement, tag string, fields []string) ([]Series, error) {
	q := &tsdb.Query{Fields: fields, Measurement: measurement, TagFilter: map[string]string{}}
	if len(fields) == 0 {
		q.Fields = []string{"*"}
	}
	if tag != "" {
		q.TagFilter["tag"] = tag
	}
	res, err := db.ExecuteContext(context.Background(), tsdb.QueryRequest{Query: q})
	if err != nil {
		return nil, err
	}
	byField := map[string]*Series{}
	var order []string
	for _, row := range res.Rows {
		for f, v := range row.Values {
			s, ok := byField[f]
			if !ok {
				s = &Series{Measurement: measurement, Field: f}
				byField[f] = s
				order = append(order, f)
			}
			s.Times = append(s.Times, row.Time)
			s.Values = append(s.Values, v)
		}
	}
	sort.Strings(order)
	out := make([]Series, 0, len(order))
	for _, f := range order {
		out = append(out, *byField[f])
	}
	return out, nil
}

// deltas converts a cumulative counter series into per-interval
// increments (length-1 shorter).
func deltas(s Series) Series {
	if len(s.Values) < 2 {
		return Series{Measurement: s.Measurement, Field: s.Field}
	}
	out := Series{Measurement: s.Measurement, Field: s.Field}
	for i := 1; i < len(s.Values); i++ {
		d := s.Values[i] - s.Values[i-1]
		if d < 0 {
			d = 0 // counter reset or noise dip
		}
		out.Times = append(out.Times, s.Times[i])
		out.Values = append(out.Values, d)
	}
	return out
}

// isCounterMeasurement reports whether a measurement holds cumulative
// hardware counters (the perfevent export namespace), which cross-series
// detectors must difference before comparing.
func isCounterMeasurement(measurement string) bool {
	return strings.HasPrefix(measurement, "perfevent_hwcounters_")
}

// ScanObservation runs every detector over the metrics an observation
// links to, returning findings sorted by severity (highest first) then
// time.
func (sc *Scanner) ScanObservation(db *tsdb.DB, o *kb.Observation) ([]Finding, error) {
	var out []Finding
	for _, m := range o.Metrics {
		series, err := fetch(db, m.Measurement, o.Tag, m.Fields)
		if err != nil {
			return nil, fmt.Errorf("anomaly: %s: %w", m.Measurement, err)
		}
		for _, s := range series {
			for _, det := range sc.Detectors {
				out = append(out, det.Detect(s)...)
			}
		}
		if sc.Imbalance != nil {
			cmp := series
			if isCounterMeasurement(m.Measurement) {
				// Cumulative counters carry history from earlier phases;
				// imbalance is a property of the rates inside this window.
				cmp = make([]Series, len(series))
				for i, s := range series {
					cmp[i] = deltas(s)
				}
			}
			out = append(out, sc.Imbalance.DetectAcross(cmp)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].TimeNanos < out[j].TimeNanos
	})
	return out, nil
}

func meanStd(vs []float64) (mean, std float64) {
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vs)))
	return mean, std
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
