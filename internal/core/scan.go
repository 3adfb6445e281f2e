package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pmove/internal/anomaly"
	"pmove/internal/kb"
)

// ScanResult is the outcome of an anomaly scan over one observation.
type ScanResult struct {
	Observation *kb.Observation
	Findings    []anomaly.Finding
	// Report is the human-readable rendering with root-cause paths.
	Report string
}

// ScanContext runs the default anomaly detectors over an observation's
// linked telemetry — the automated-analysis loop of §III-B.
// Hardware-counter measurements are scanned on the CPUs the observation
// was pinned to (idle CPUs carry only baseline counts); software metrics
// are scanned on their full instance domains.
func (d *Daemon) ScanContext(ctx context.Context, host, tag string) (_ *ScanResult, err error) {
	ctx, done := d.opStart(ctx, "scan")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: scan %s: %w", host, err)
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	d.kbMu.Lock()
	obs, ok := k.FindObservation(tag)
	d.kbMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: host %s has no observation %q", host, tag)
	}
	scoped := *obs
	if len(obs.Affinity) > 0 {
		var pinned []string
		for _, hw := range obs.Affinity {
			pinned = append(pinned, fmt.Sprintf("_cpu%d", hw))
		}
		sort.Strings(pinned)
		scoped.Metrics = nil
		for _, m := range obs.Metrics {
			ref := m
			if strings.HasPrefix(m.Measurement, "perfevent_hwcounters_") && !strings.Contains(m.Measurement, "RAPL") {
				ref = kb.MetricRef{Measurement: m.Measurement, Fields: pinned}
			}
			scoped.Metrics = append(scoped.Metrics, ref)
		}
	}
	findings, err := anomaly.DefaultScanner().ScanObservation(d.TS, &scoped)
	if err != nil {
		return nil, err
	}
	return &ScanResult{
		Observation: obs,
		Findings:    findings,
		Report:      anomaly.Report(k, findings),
	}, nil
}
