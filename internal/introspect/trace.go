package introspect

import (
	"context"
	"sync"
	"time"
)

// Span is one finished operation: identity, trace membership, parentage,
// timing and error. Parent is 0 for root spans; for a span opened from a
// remote traceparent it is the sender's span id, linking processes.
type Span struct {
	Trace   TraceID
	ID      uint64
	Parent  uint64
	Name    string
	Process string // the tracer's process label ("daemon", "tsdb-server")
	Start   int64  // UnixNano
	End     int64  // UnixNano
	Err     string
}

// DurationSeconds returns the span's wall time.
func (s Span) DurationSeconds() float64 {
	return float64(s.End-s.Start) / 1e9
}

type spanCtxKey struct{}

// SpanContextFromContext returns the span context carried by ctx.
func SpanContextFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// ContextWithSpanContext returns ctx carrying sc — how a server installs
// a remote parent parsed off the wire before opening its own spans.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// ActiveSpan is an open span; End closes it into the tracer's ring.
// Nil-safe: methods on a nil *ActiveSpan are no-ops.
type ActiveSpan struct {
	t       *Tracer
	span    Span
	sampled bool
	done    bool
}

// ID returns the span id (0 on nil).
func (a *ActiveSpan) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// Context returns the span's propagation context (zero on nil).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID, Sampled: a.sampled}
}

// End closes the span, recording err (if any). Idempotent. A span of an
// unsampled trace is discarded here — unless it errored, in which case it
// is recorded anyway (the always-on-error half of the sampling policy).
func (a *ActiveSpan) End(err error) {
	if a == nil || a.done {
		return
	}
	a.done = true
	a.span.End = a.t.now()
	if err != nil {
		a.span.Err = err.Error()
	}
	if !a.sampled && a.span.Err == "" {
		return
	}
	a.t.record(a.span)
}

// TracerConfig tunes a tracer at construction.
type TracerConfig struct {
	// Capacity bounds the finished-span ring (DefaultSpanCapacity when
	// <= 0); older spans are dropped, and counted.
	Capacity int
	// Process labels every span with the emitting process, so a trace
	// collector can tell which ring a span came from after assembly.
	Process string
	// SampleRate is the head-based probability a new root trace is kept,
	// in [0, 1]; <= 0 means keep everything (the default). The decision
	// is made once at the trace root and propagated; spans that end in
	// error are always recorded regardless.
	SampleRate float64
	// Seed drives span/trace id generation and the sampling decision
	// deterministically; 0 derives a seed from the wall clock so two
	// processes never allocate colliding span ids.
	Seed uint64
}

// Tracer allocates span ids and keeps finished spans in a bounded ring.
// All methods are safe for concurrent use and on a nil receiver. Span
// ids are drawn from a seeded 64-bit permutation, so ids from tracers in
// different processes do not collide when their rings are assembled into
// one trace.
type Tracer struct {
	mu         sync.Mutex
	idBase     uint64
	idSeq      uint64
	cap        int
	process    string
	sampleRate float64
	spans      []Span // ring, oldest first
	dropped    uint64

	// onDrop, when set, observes ring evictions (the Introspector wires
	// it to the trace.dropped self counter).
	onDrop func(n uint64)

	// nowNanos is swappable for deterministic tests.
	nowNanos func() int64
}

// NewTracer builds a tracer keeping at most capacity finished spans
// (DefaultSpanCapacity when <= 0), sampling everything.
func NewTracer(capacity int) *Tracer {
	return NewTracerWith(TracerConfig{Capacity: capacity})
}

// NewTracerWith builds a tracer from an explicit configuration.
func NewTracerWith(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSpanCapacity
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return &Tracer{
		idBase:     splitmix64(seed),
		cap:        cfg.Capacity,
		process:    cfg.Process,
		sampleRate: cfg.SampleRate,
		nowNanos:   func() int64 { return time.Now().UnixNano() },
	}
}

// Process returns the tracer's process label.
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.process
}

func (t *Tracer) now() int64 {
	t.mu.Lock()
	f := t.nowNanos
	t.mu.Unlock()
	return f()
}

// splitmix64 is the SplitMix64 finalizer: a cheap 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextRand draws the next id-stream value. Caller holds mu.
func (t *Tracer) nextRand() uint64 {
	t.idSeq++
	v := splitmix64(t.idBase + t.idSeq)
	if v == 0 {
		v = 1
	}
	return v
}

// Start opens a span named name, child of the span in ctx if any, and
// returns a context carrying the new span. A span with no parent roots a
// fresh trace and makes the head-based sampling decision for everything
// beneath it, across processes. Nil-safe.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return t.StartAt(ctx, name, 0)
}

// StartAt is Start with an explicit start time (UnixNano; 0 means now) —
// for servers that learn the trace context only after work that should
// be inside the span (e.g. decoding the request that carries it).
func (t *Tracer) StartAt(ctx context.Context, name string, startNanos int64) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	parent, hasParent := SpanContextFromContext(ctx)
	t.mu.Lock()
	id := t.nextRand()
	var sc SpanContext
	if hasParent && !parent.Trace.IsZero() {
		sc = SpanContext{Trace: parent.Trace, Span: id, Sampled: parent.Sampled}
	} else {
		trace := TraceID{Hi: t.nextRand(), Lo: t.nextRand()}
		sampled := true
		if t.sampleRate > 0 && t.sampleRate < 1 {
			sampled = float64(t.nextRand()>>11)/float64(1<<53) < t.sampleRate
		}
		sc = SpanContext{Trace: trace, Span: id, Sampled: sampled}
	}
	start := startNanos
	if start == 0 {
		start = t.nowNanos()
	}
	process := t.process
	t.mu.Unlock()
	a := &ActiveSpan{t: t, sampled: sc.Sampled, span: Span{
		Trace:   sc.Trace,
		ID:      id,
		Parent:  parent.Span,
		Name:    name,
		Process: process,
		Start:   start,
	}}
	return ContextWithSpanContext(ctx, sc), a
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	var hook func(uint64)
	if len(t.spans) >= t.cap {
		t.spans = t.spans[1:]
		t.dropped++
		hook = t.onDrop
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	if hook != nil {
		hook(1)
	}
}

// Spans returns the finished spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many finished spans the ring evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Children returns the finished spans whose parent is id, oldest first.
func (t *Tracer) Children(id uint64) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Roots returns the finished spans with no parent, oldest first.
func (t *Tracer) Roots() []Span { return t.Children(0) }

// Find returns the newest finished span with the given name.
func (t *Tracer) Find(name string) (Span, bool) {
	spans := t.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name {
			return spans[i], true
		}
	}
	return Span{}, false
}
