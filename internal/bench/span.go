package bench

import (
	"encoding/json"
	"sync"
	"time"
)

// The benchmark's own span recorder for the traced pass: one span at each
// call the harness makes into a layer (name, start, end, the span that
// caused it, and the op it belongs to), kept in memory and rendered as a
// Chrome trace when the run ends. Spans inside the program are a later
// change; until then a layer's self time is what its span covers minus
// what its child spans cover. A nil *tracer records nothing, so untraced
// runs go through the same call sites at no cost.

type span struct {
	name       string
	op         int64 // tick / batch / query number, shared by the spans of one op
	parent     int   // index into tracer.spans, -1 for a root
	lane       int   // goroutine lane (Chrome tid)
	start, end int64 // ns since tracer start
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane, start: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// names returns the distinct span names recorded, for isolation checks
// ("no wire span in bulk_ingest").
func (t *tracer) names() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.name]++
	}
	return out
}

// durations returns, per span name, every span's duration and self time
// (duration minus the time its direct children cover) in microseconds.
func (t *tracer) durations() (total, self map[string][]float64) {
	total, self = map[string][]float64{}, map[string][]float64{}
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] = append(total[s.name], float64(d)/1e3)
		self[s.name] = append(self[s.name], float64(d-child[i])/1e3)
	}
	return total, self
}

// chromeTrace renders the spans as Chrome trace-event JSON (complete "X"
// events; load in chrome://tracing or ui.perfetto.dev).
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms", TraceEvents: []event{}}
	if t != nil {
		t.mu.Lock()
		for i, s := range t.spans {
			if s.end == 0 {
				continue
			}
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: s.lane, Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
			})
		}
		t.mu.Unlock()
	}
	return json.Marshal(doc)
}
