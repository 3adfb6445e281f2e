package anomaly

import (
	"context"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/tsdb"
)

func series(meas, field string, vals ...float64) Series {
	s := Series{Measurement: meas, Field: field}
	for i, v := range vals {
		s.Times = append(s.Times, int64(i)*1e9)
		s.Values = append(s.Values, v)
	}
	return s
}

func TestThresholdDetector(t *testing.T) {
	d := Threshold{Min: 0, Max: 100, Sev: Critical}
	fs := d.Detect(series("m", "_cpu0", 10, 50, 150, -3, 99))
	if len(fs) != 2 {
		t.Fatalf("findings: %d", len(fs))
	}
	if fs[0].Value != 150 || fs[1].Value != -3 {
		t.Errorf("wrong values flagged: %+v", fs)
	}
	if fs[0].Severity != Critical {
		t.Error("severity lost")
	}
}

func TestZScoreDetector(t *testing.T) {
	d := ZScore{K: 3, MinSamples: 8, Sev: Warning}
	// Flat series with one big spike.
	vals := []float64{10, 11, 9, 10, 10, 11, 9, 10, 10, 500, 10, 10}
	fs := d.Detect(series("m", "_cpu1", vals...))
	if len(fs) != 1 || fs[0].Value != 500 {
		t.Fatalf("findings: %+v", fs)
	}
	// No baseline -> no findings.
	if fs := d.Detect(series("m", "f", 1, 2, 3)); fs != nil {
		t.Error("short series should be skipped")
	}
	// Constant series -> std 0 -> no findings.
	if fs := d.Detect(series("m", "f", 5, 5, 5, 5, 5, 5, 5, 5, 5)); fs != nil {
		t.Error("constant series flagged")
	}
}

func TestStallDetector(t *testing.T) {
	d := Stall{Window: 4, Sev: Critical}
	// Counter advances, then freezes.
	fs := d.Detect(series("m", "_cpu0", 1, 2, 3, 4, 4, 4, 4, 4))
	if len(fs) != 1 {
		t.Fatalf("findings: %+v", fs)
	}
	// A counter that never moved is not a stall (it may just be zero).
	if fs := d.Detect(series("m", "f", 0, 0, 0, 0, 0, 0)); fs != nil {
		t.Error("never-moving counter flagged as stall")
	}
	// A moving counter never freezes.
	if fs := d.Detect(series("m", "f", 1, 2, 3, 4, 5, 6, 7)); fs != nil {
		t.Error("healthy counter flagged")
	}
}

func TestImbalanceDetector(t *testing.T) {
	d := Imbalance{RelTolerance: 0.5, MinFraction: 0.6, Sev: Warning}
	healthy := []Series{
		series("m", "_cpu0", 100, 100, 100, 100),
		series("m", "_cpu1", 105, 95, 100, 102),
		series("m", "_cpu2", 98, 103, 99, 100),
	}
	if fs := d.DetectAcross(healthy); fs != nil {
		t.Errorf("balanced instances flagged: %+v", fs)
	}
	skewed := append(healthy, series("m", "_cpu3", 5, 4, 6, 5))
	fs := d.DetectAcross(skewed)
	if len(fs) != 1 || fs[0].Field != "_cpu3" {
		t.Fatalf("findings: %+v", fs)
	}
	// Fewer than two instances: nothing to compare.
	if fs := d.DetectAcross(healthy[:1]); fs != nil {
		t.Error("single series flagged")
	}
}

func TestScanObservationEndToEnd(t *testing.T) {
	db := tsdb.New()
	tag := "obs-anomaly"
	// cpu0 is healthy, cpu1 freezes after a while (sampler stall).
	cum0, cum1 := 0.0, 0.0
	for i := int64(0); i < 20; i++ {
		cum0 += 100
		if i < 8 {
			cum1 += 100
		}
		db.WriteBatchContext(context.Background(), []tsdb.Point{{
			Measurement: "perfevent_hwcounters_CYC",
			Tags:        map[string]string{"tag": tag},
			Fields:      map[string]float64{"_cpu0": cum0, "_cpu1": cum1},
			Time:        i * 1e9,
		}})
	}
	obs := &kb.Observation{
		ID: "obs:1", Tag: tag, Host: "t",
		Metrics: []kb.MetricRef{{Measurement: "perfevent_hwcounters_CYC", Fields: []string{"_cpu0", "_cpu1"}}},
	}
	fs, err := DefaultScanner().ScanObservation(db, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("stalled counter not detected")
	}
	foundStall := false
	for _, f := range fs {
		if f.Detector == "stall" && f.Field == "_cpu1" {
			foundStall = true
		}
		if f.Detector == "stall" && f.Field == "_cpu0" {
			t.Error("healthy counter flagged as stalled")
		}
	}
	if !foundStall {
		t.Errorf("findings: %+v", fs)
	}
	// Findings sorted by severity descending.
	for i := 1; i < len(fs); i++ {
		if fs[i].Severity > fs[i-1].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Critical.String() != "critical" {
		t.Fatal("severity strings")
	}
}
