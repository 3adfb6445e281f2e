package traceexport

import (
	"context"
	"fmt"
	"strings"

	"pmove/internal/introspect"
	"pmove/internal/tsdb"
)

// Attribution splits a trace's wire time across the pipeline hops the
// paper's loss analysis cares about: where does a telemetry point's
// latency actually go. The components partition EndToEndSeconds — the
// total time inside transport.<name>.do spans — exactly by construction:
//
//	ClientQueue  time inside do but outside any attempt/backoff
//	             (breaker checks, lock waits, loop overhead)
//	Retry        backoff sleeps plus attempts that failed
//	Network      successful attempt time not covered by server spans
//	             (dial, wire transfer, serialization)
//	ServerParse  server-side decode of the frame
//	ServerInsert server-side storage work (insert/exec)
//	ServerQueue  server-side time outside parse/insert (queueing)
//
// Untraced servers contribute their whole round trip to Network.
type Attribution struct {
	EndToEndSeconds    float64
	ClientQueueSeconds float64
	NetworkSeconds     float64
	RetrySeconds       float64
	ServerParseSeconds float64
	ServerQueueSeconds float64
	ServerInsertSecs   float64
	Hops               int // transport.<name>.do spans attributed
}

// Sum adds the components back together; it differs from
// EndToEndSeconds only when clock anomalies forced clamping.
func (a Attribution) Sum() float64 {
	return a.ClientQueueSeconds + a.NetworkSeconds + a.RetrySeconds +
		a.ServerParseSeconds + a.ServerQueueSeconds + a.ServerInsertSecs
}

// String renders one line per component, for CLI output.
func (a Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "end-to-end wire time %.3fms across %d hops\n", a.EndToEndSeconds*1e3, a.Hops)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"client queue", a.ClientQueueSeconds},
		{"network", a.NetworkSeconds},
		{"retry/backoff", a.RetrySeconds},
		{"server parse", a.ServerParseSeconds},
		{"server queue", a.ServerQueueSeconds},
		{"server insert", a.ServerInsertSecs},
	} {
		pct := 0.0
		if a.EndToEndSeconds > 0 {
			pct = 100 * row.v / a.EndToEndSeconds
		}
		fmt.Fprintf(&b, "  %-13s %9.3fms  %5.1f%%\n", row.name, row.v*1e3, pct)
	}
	return b.String()
}

func spanSeconds(s introspect.Span) float64 {
	d := s.DurationSeconds()
	if d < 0 {
		return 0
	}
	return d
}

func isServerSpan(name string) bool { return strings.Contains(name, ".server.") }

// Attribute computes per-hop latency attribution over an assembled
// trace. Each transport.<name>.do span is partitioned among its
// attempt/backoff children and, through the traceparent link, the server
// spans nested under each attempt; nested durations are clamped into
// their parents so the components always sum back to the measured
// end-to-end time.
func Attribute(tr *Trace) Attribution {
	var a Attribution
	tr.Walk(func(n *Node, _ int) {
		name := n.Span.Name
		if !strings.HasPrefix(name, "transport.") || !strings.HasSuffix(name, ".do") {
			return
		}
		a.Hops++
		d := spanSeconds(n.Span)
		a.EndToEndSeconds += d
		inner := 0.0
		for _, ch := range n.Children {
			cd := spanSeconds(ch.Span)
			if cd > d-inner {
				cd = d - inner // clamp into the remaining do budget
			}
			if cd <= 0 {
				continue
			}
			switch {
			case strings.HasSuffix(ch.Span.Name, ".backoff"):
				a.RetrySeconds += cd
				inner += cd
			case strings.HasSuffix(ch.Span.Name, ".attempt"):
				inner += cd
				if ch.Span.Err != "" {
					// A failed attempt is pure retry cost: its time bought
					// no progress.
					a.RetrySeconds += cd
					continue
				}
				serverDur := 0.0
				for _, sv := range ch.Children {
					if !isServerSpan(sv.Span.Name) {
						continue
					}
					sd := spanSeconds(sv.Span)
					if sd > cd-serverDur {
						sd = cd - serverDur
					}
					if sd <= 0 {
						continue
					}
					serverDur += sd
					phases := 0.0
					for _, ph := range sv.Children {
						pd := spanSeconds(ph.Span)
						if pd > sd-phases {
							pd = sd - phases
						}
						if pd <= 0 {
							continue
						}
						phases += pd
						switch {
						case strings.HasSuffix(ph.Span.Name, ".parse"):
							a.ServerParseSeconds += pd
						case strings.HasSuffix(ph.Span.Name, ".insert"),
							strings.HasSuffix(ph.Span.Name, ".exec"):
							a.ServerInsertSecs += pd
						default:
							a.ServerQueueSeconds += pd
						}
					}
					// Server time not covered by a phase span is queueing.
					a.ServerQueueSeconds += sd - phases
				}
				a.NetworkSeconds += cd - serverDur
			}
		}
		if rest := d - inner; rest > 0 {
			a.ClientQueueSeconds += rest
		}
	})
	return a
}

// RecordAttribution mirrors an attribution into the registry as
// trace.hop.*.seconds gauges, so the meta dashboard charts where
// telemetry time goes alongside every other pmove.self.* series.
func RecordAttribution(reg *introspect.Registry, a Attribution) {
	reg.Gauge("trace.hop.wire.seconds").Set(a.EndToEndSeconds)
	reg.Gauge("trace.hop.client_queue.seconds").Set(a.ClientQueueSeconds)
	reg.Gauge("trace.hop.network.seconds").Set(a.NetworkSeconds)
	reg.Gauge("trace.hop.retry.seconds").Set(a.RetrySeconds)
	reg.Gauge("trace.hop.server_parse.seconds").Set(a.ServerParseSeconds)
	reg.Gauge("trace.hop.server_queue.seconds").Set(a.ServerQueueSeconds)
	reg.Gauge("trace.hop.server_insert.seconds").Set(a.ServerInsertSecs)
}

// ExportAttribution writes one point holding every attribution component
// under <prefix>.trace.hop.seconds, tagged "self" like all
// self-telemetry, honoring ctx cancellation through the sink.
func ExportAttribution(ctx context.Context, sink tsdb.BatchWriter, prefix string, a Attribution, nowNanos int64) error {
	p := tsdb.Point{
		Measurement: tsdb.MeasurementName(prefix + ".trace.hop.seconds"),
		Tags:        map[string]string{"tag": "self"},
		Fields: map[string]float64{
			"wire":          a.EndToEndSeconds,
			"client_queue":  a.ClientQueueSeconds,
			"network":       a.NetworkSeconds,
			"retry":         a.RetrySeconds,
			"server_parse":  a.ServerParseSeconds,
			"server_queue":  a.ServerQueueSeconds,
			"server_insert": a.ServerInsertSecs,
			"hops":          float64(a.Hops),
		},
		Time: nowNanos,
	}
	if err := sink.WriteBatchContext(ctx, []tsdb.Point{p}); err != nil {
		return fmt.Errorf("traceexport: export attribution: %w", err)
	}
	return nil
}
