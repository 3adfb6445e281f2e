// Package selfexport ships the self-observability registry into the
// TSDB and renders the meta dashboard. It lives below introspect so the
// registry/tracer core stays import-free: packages the exporter depends
// on (tsdb, dashboard, resilience beneath them) can therefore themselves
// be instrumented with introspect without a cycle.
package selfexport

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pmove/internal/dashboard"
	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// selfTag marks every exported point so self-telemetry is recallable with
// the same tag-filtered Listing-3 queries as any observation.
const selfTag = "self"

// MeasurementFor returns the TSDB measurement name a metric exports to:
// the prefixed metric name through the same dots-to-underscores mapping
// as every PCP metric, e.g. ("pmove.self", "op.monitor.total") ->
// "pmove_self_op_monitor_total".
func MeasurementFor(prefix, name string) string {
	return tsdb.MeasurementName(prefix + "." + name)
}

// bucketField names the field holding one histogram bucket's count.
func bucketField(le float64) string {
	if math.IsInf(le, 1) {
		return "_le_inf"
	}
	return fmt.Sprintf("_le_%g", le)
}

// Export writes a snapshot of the introspector's registry into sink at
// nowNanos: one point per metric under the introspector's prefix, the
// whole snapshot as one batch. Counters and gauges export a single
// "_value" field; histograms export "_count", "_sum" and one "_le_*"
// field per bucket. It returns how many points were written — all of
// them or, on a write error, none (self-telemetry must never wedge the
// op that emitted it — callers treat the error as advisory). A nil
// introspector exports nothing.
func Export(ctx context.Context, in *introspect.Introspector, sink tsdb.BatchWriter, nowNanos int64) (int, error) {
	if !in.Enabled() {
		return 0, nil
	}
	return ExportSnapshot(ctx, sink, in.Prefix(), in.Snapshot(), nowNanos)
}

// ExportSnapshot writes an already-taken snapshot (Export's core; split
// out so delta snapshots can be shipped too).
func ExportSnapshot(ctx context.Context, sink tsdb.BatchWriter, prefix string, snap introspect.Snapshot, nowNanos int64) (int, error) {
	pts := make([]tsdb.Point, 0, len(snap.Metrics))
	for _, m := range snap.Metrics {
		p := tsdb.Point{
			Measurement: MeasurementFor(prefix, m.Name),
			Tags:        map[string]string{"tag": selfTag, "kind": string(m.Kind)},
			Fields:      map[string]float64{},
			Time:        nowNanos,
		}
		switch m.Kind {
		case introspect.KindHistogram:
			p.Fields["_count"] = float64(m.Count)
			p.Fields["_sum"] = m.Sum
			for _, b := range m.Buckets {
				p.Fields[bucketField(b.LE)] = float64(b.Count)
			}
		default:
			p.Fields["_value"] = m.Value
		}
		pts = append(pts, p)
	}
	if err := sink.WriteBatchContext(ctx, pts); err != nil {
		return 0, fmt.Errorf("selfexport: export: %w", err)
	}
	return len(pts), nil
}

// MetaDashboard generates the self-observability dashboard over a
// snapshot: one panel per metric, targeting the exported pmove.self.*
// measurements — the monitor's own health rendered through the same
// dashboard substrate it generates for its targets. datasourceUID names
// the registered tsdb connection (the daemon passes its generator's UID).
func MetaDashboard(datasourceUID, prefix string, snap introspect.Snapshot) (*dashboard.Dashboard, error) {
	if len(snap.Metrics) == 0 {
		return nil, fmt.Errorf("selfexport: no self-metrics to display")
	}
	d := &dashboard.Dashboard{
		ID:    1,
		Title: fmt.Sprintf("P-MoVE self-observability (%s.*)", prefix),
		Time:  dashboard.TimeRange{From: "now-5m", To: "now"},
	}
	ds := dashboard.Datasource{Type: "influxdb", UID: datasourceUID}
	for i, m := range snap.Metrics {
		p := dashboard.Panel{ID: i + 1, Title: prefix + "." + m.Name}
		meas := MeasurementFor(prefix, m.Name)
		switch m.Kind {
		case introspect.KindHistogram:
			for _, f := range []string{"_count", "_sum"} {
				p.Targets = append(p.Targets, dashboard.Target{
					Datasource: ds, Measurement: meas, Params: f, Tag: selfTag,
				})
			}
		default:
			p.Targets = append(p.Targets, dashboard.Target{
				Datasource: ds, Measurement: meas, Params: "_value", Tag: selfTag,
			})
		}
		sort.Slice(p.Targets, func(a, b int) bool { return p.Targets[a].Params < p.Targets[b].Params })
		d.Panels = append(d.Panels, p)
	}
	return d, d.Validate()
}
