// Package logbuf is the bounded structured log ring behind the
// observability plane: every component of the daemon (telemetry
// pipeline, resilience transports, wire servers) appends leveled,
// key/value-structured records that carry the ambient trace identity
// pulled from the context, so a log line and the span it happened under
// join on the same 128-bit TraceID.
//
// The ring is lock-free-ish: a single atomic sequence counter allocates
// slots, and each slot has its own mutex, so concurrent writers only
// contend when they land on the same slot (i.e. when the ring has
// wrapped a full capacity between them). Readers snapshot slot by slot
// and order by sequence number; a record overwritten mid-snapshot is
// simply absent, never torn.
package logbuf

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmove/internal/introspect"
)

// Level orders record severities.
type Level int32

// Severities, lowest first.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String renders the conventional lowercase name.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "unknown"
	}
}

// ParseLevel maps a level name (case-insensitive) back to its Level.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(s) {
	case "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn", "warning":
		return Warn, true
	case "error":
		return Error, true
	}
	return Info, false
}

// Field is one key/value pair attached to a record.
type Field struct {
	Key   string
	Value string
}

// Record is one structured log event. Trace and Span are the ambient
// identity from the context the record was logged under; both are zero
// for untraced events.
type Record struct {
	// Seq is the global, monotonically increasing record number. Gaps in
	// a snapshot mean the ring evicted records between them.
	Seq       uint64
	Time      time.Time
	Level     Level
	Component string
	Msg       string
	Trace     introspect.TraceID
	Span      uint64
	Fields    []Field
}

// slot is one ring cell. The per-slot mutex keeps reads untorn without
// serializing writers that land on different slots.
type slot struct {
	mu  sync.Mutex
	set bool
	rec Record
}

// Logger is the bounded ring. The zero value and nil are both safe:
// every method is a no-op (or returns empty) so call sites never guard.
// Component-scoped children from With share the parent's ring.
type Logger struct {
	ring      []slot
	seq       atomic.Uint64 // next sequence number to allocate
	dropped   atomic.Uint64 // records evicted by wrap-around
	component string
	parent    *Logger // nil on root loggers; children share the root's counters
}

// DefaultCapacity bounds the ring when New is given a non-positive
// capacity.
const DefaultCapacity = 4096

// New returns a ring holding up to capacity records; older records are
// evicted as new ones arrive.
func New(capacity int) *Logger {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Logger{ring: make([]slot, capacity)}
}

// With returns a child logger stamping component onto every record. The
// child shares the parent's ring and sequence space.
func (l *Logger) With(component string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{ring: l.ring, component: component, parent: l.root()}
}

// root returns the logger owning the shared counters.
func (l *Logger) root() *Logger {
	if l.parent != nil {
		return l.parent
	}
	return l
}

// Dropped counts records evicted by ring wrap-around since creation.
func (l *Logger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.root().dropped.Load()
}

// Log appends one record, pulling the trace identity from ctx. kv is
// alternating key, value strings; a trailing key without a value gets
// "". The ring keeps every level (Filter selects at read time); nil and
// zero-value loggers are free no-ops.
func (l *Logger) Log(ctx context.Context, level Level, msg string, kv ...string) {
	if l == nil || len(l.root().ring) == 0 {
		return
	}
	r := l.root()
	rec := Record{
		Time:      time.Now(),
		Level:     level,
		Component: l.component,
		Msg:       msg,
	}
	if sc, ok := introspect.SpanContextFromContext(ctx); ok && sc.Valid() {
		rec.Trace = sc.Trace
		rec.Span = sc.Span
	}
	if len(kv) > 0 {
		rec.Fields = make([]Field, 0, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			f := Field{Key: kv[i]}
			if i+1 < len(kv) {
				f.Value = kv[i+1]
			}
			rec.Fields = append(rec.Fields, f)
		}
	}
	seq := r.seq.Add(1) - 1
	rec.Seq = seq
	s := &r.ring[seq%uint64(len(r.ring))]
	s.mu.Lock()
	if s.set {
		r.dropped.Add(1)
	}
	s.set = true
	s.rec = rec
	s.mu.Unlock()
}

// Debug logs at Debug level.
func (l *Logger) Debug(ctx context.Context, msg string, kv ...string) {
	l.Log(ctx, Debug, msg, kv...)
}

// Info logs at Info level.
func (l *Logger) Info(ctx context.Context, msg string, kv ...string) {
	l.Log(ctx, Info, msg, kv...)
}

// Warn logs at Warn level.
func (l *Logger) Warn(ctx context.Context, msg string, kv ...string) {
	l.Log(ctx, Warn, msg, kv...)
}

// Error logs at Error level.
func (l *Logger) Error(ctx context.Context, msg string, kv ...string) {
	l.Log(ctx, Error, msg, kv...)
}

// Records snapshots the ring in sequence order, oldest first. The
// snapshot is consistent per record (never torn) but not across the
// ring: records appended or evicted while snapshotting may or may not
// appear.
func (l *Logger) Records() []Record {
	return l.Filter(Query{})
}

// Query filters a Records snapshot. Zero values match everything.
type Query struct {
	// MinLevel keeps records at or above this level.
	MinLevel Level
	// Trace, when nonzero, keeps only records of that trace.
	Trace introspect.TraceID
	// Component, when non-empty, keeps only that component's records.
	Component string
	// Limit, when positive, keeps only the newest that many records
	// after the other filters.
	Limit int
}

// Filter snapshots the ring and applies q, returning matching records
// oldest first.
func (l *Logger) Filter(q Query) []Record {
	if l == nil {
		return nil
	}
	r := l.root()
	if len(r.ring) == 0 {
		return nil
	}
	out := make([]Record, 0, len(r.ring))
	for i := range r.ring {
		s := &r.ring[i]
		s.mu.Lock()
		ok := s.set
		rec := s.rec
		s.mu.Unlock()
		if !ok || rec.Level < q.MinLevel {
			continue
		}
		if !q.Trace.IsZero() && rec.Trace != q.Trace {
			continue
		}
		if q.Component != "" && rec.Component != q.Component {
			continue
		}
		out = append(out, rec)
	}
	sortRecords(out)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// sortRecords orders by sequence number (insertion sort: snapshots come
// out of the ring nearly sorted already — at most one rotation).
func sortRecords(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Seq < recs[j-1].Seq; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}
