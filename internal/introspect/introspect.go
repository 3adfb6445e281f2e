// Package introspect is P-MoVE's self-observability layer: the monitor
// monitoring itself. A framework whose job is watching other systems is
// blind to its own regressions unless its daemon, telemetry pipeline,
// database servers and resilience transport emit telemetry too — the gap
// HPC operations teams hit first (Ciorba, "The importance and need for
// system monitoring and analysis in HPC operations"), and one the
// unified-ontology line of work treats as a first-class graph entity.
//
// The package is stdlib-only and has three parts:
//
//   - a concurrent metrics registry (atomic counters, float gauges, and
//     fixed-bucket histograms for operation latencies) with snapshot
//     semantics;
//   - a distributed tracer: 128-bit trace ids with head-based sampling,
//     spans with parent links carried through context.Context and across
//     process boundaries via a traceparent wire field, finished spans
//     kept in a bounded ring (evictions counted in trace.dropped);
//   - an exporter that writes the registry into the embedded TSDB under
//     the "pmove.self.*" measurement namespace, plus an auto-generated
//     "meta" dashboard over those series — the digital twin observing
//     itself through its own visualization path.
//
// The traceexport subpackage stitches span rings from several processes
// into whole trace trees, attributes latency per hop, and exports
// waterfall text and Chrome trace-event JSON.
//
// Everything is nil-safe: a nil *Introspector (introspection disabled)
// hands out nil registries, counters and spans whose methods are no-ops,
// so instrumented call sites carry no conditionals and near-zero cost.
package introspect

import "context"

// DefaultPrefix is the namespace of every self-observability series: the
// TSDB export, the /metrics plane and the meta dashboard all name a
// registry metric "pmove.self.<name>".
const DefaultPrefix = "pmove.self"

// DefaultSpanCapacity bounds the tracer's finished-span ring.
const DefaultSpanCapacity = 4096

// DroppedSpansMetric is the registry counter that tracks spans evicted
// from the tracer ring (exported as pmove.self.trace.dropped).
const DroppedSpansMetric = "trace.dropped"

// Introspector bundles the registry and tracer one daemon (or server)
// instance reports into.
type Introspector struct {
	metrics *Registry
	tracer  *Tracer
	cfg     TracerConfig
}

// Option configures an Introspector.
type Option func(*Introspector)

// WithSpanCapacity bounds the finished-span ring (default
// DefaultSpanCapacity); older spans are dropped, and counted.
func WithSpanCapacity(n int) Option {
	return func(in *Introspector) { in.cfg.Capacity = n }
}

// WithProcess labels every span with the emitting process's name
// ("daemon", "tsdb-server", ...) so multi-process trace assembly can
// tell the rings apart.
func WithProcess(name string) Option {
	return func(in *Introspector) { in.cfg.Process = name }
}

// WithSampling sets the head-based trace sampling rate in (0,1] and the
// deterministic seed for span-id generation and sampling decisions
// (seed 0 derives from the clock). Spans that end in error are recorded
// regardless of the sampling decision.
func WithSampling(rate float64, seed uint64) Option {
	return func(in *Introspector) {
		in.cfg.SampleRate = rate
		in.cfg.Seed = seed
	}
}

// New builds an enabled Introspector.
func New(opts ...Option) *Introspector {
	in := &Introspector{metrics: NewRegistry()}
	for _, o := range opts {
		o(in)
	}
	in.tracer = NewTracerWith(in.cfg)
	// The counter is materialized on first drop so registries of tracers
	// that never overflow stay free of it.
	metrics := in.metrics
	in.tracer.onDrop = func(n uint64) { metrics.Counter(DroppedSpansMetric).Add(n) }
	return in
}

// Enabled reports whether in is live (non-nil).
func (in *Introspector) Enabled() bool { return in != nil }

// Metrics returns the registry, nil when disabled (the nil registry is
// itself safe to use).
func (in *Introspector) Metrics() *Registry {
	if in == nil {
		return nil
	}
	return in.metrics
}

// Tracer returns the span tracer, nil when disabled.
func (in *Introspector) Tracer() *Tracer {
	if in == nil {
		return nil
	}
	return in.tracer
}

// StartSpan opens a span named name as a child of the span in ctx (if
// any), returning the child context. Safe on a nil Introspector: the
// context passes through and the returned span's End is a no-op.
func (in *Introspector) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if in == nil {
		return ctx, nil
	}
	return in.tracer.Start(ctx, name)
}

// StartSpanAt is StartSpan with an explicit start time (UnixNano; 0
// means now) — for servers that decode the request, and with it the
// trace context, after the work the span should cover began.
func (in *Introspector) StartSpanAt(ctx context.Context, name string, startNanos int64) (context.Context, *ActiveSpan) {
	if in == nil {
		return ctx, nil
	}
	return in.tracer.StartAt(ctx, name, startNanos)
}

// Snapshot captures the registry's current state.
func (in *Introspector) Snapshot() Snapshot {
	if in == nil {
		return Snapshot{}
	}
	return in.metrics.Snapshot()
}
