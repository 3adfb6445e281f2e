// Package traceexport assembles distributed traces from per-process
// span rings and exports them for humans and tools: a text waterfall, a
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing), and
// per-hop latency attribution fed back into the self-observability
// registry. It sits beside selfexport, below introspect's core, so the
// tracer itself stays import-free.
package traceexport

import (
	"sort"
	"sync"

	"pmove/internal/introspect"
)

// Collector gathers span rings from the tracers of every process in a
// deployment (daemon, tsdb server) and assembles them into
// traces. Safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	tracers []*introspect.Tracer
	labels  []string
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add registers a live tracer; Collect snapshots it each time. label is
// used for spans the tracer did not stamp with a process name, so rings
// recorded before the tracer learned its name still attribute correctly.
func (c *Collector) Add(label string, t *introspect.Tracer) {
	if t == nil {
		return
	}
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.labels = append(c.labels, label)
	c.mu.Unlock()
}

// Collect snapshots every registered source into one flat span list,
// process labels filled in.
func (c *Collector) Collect() []introspect.Span {
	c.mu.Lock()
	tracers, labels := c.tracers, c.labels
	c.mu.Unlock()

	var out []introspect.Span
	for i, t := range tracers {
		label := labels[i]
		if p := t.Process(); p != "" {
			label = p
		}
		for _, s := range t.Spans() {
			if s.Process == "" {
				s.Process = label
			}
			out = append(out, s)
		}
	}
	return out
}

// Traces assembles everything collected so far, earliest trace first.
func (c *Collector) Traces() []*Trace { return Assemble(c.Collect()) }

// Trace returns the assembled trace with the given id, if collected.
func (c *Collector) Trace(id introspect.TraceID) (*Trace, bool) {
	return AssembleTrace(c.Collect(), id)
}

// Node is one span in an assembled trace tree, children sorted by start
// time.
type Node struct {
	Span     introspect.Span
	Children []*Node
}

// Walk visits the node and its subtree depth-first in start order.
func (n *Node) Walk(fn func(n *Node, depth int)) { n.walk(fn, 0) }

func (n *Node) walk(fn func(n *Node, depth int), depth int) {
	fn(n, depth)
	for _, ch := range n.Children {
		ch.walk(fn, depth+1)
	}
}

// Trace is one assembled distributed trace: the tree(s) of spans sharing
// a trace id. Roots are spans with no parent; Orphans are spans whose
// parent id was not collected (a ring overwrote it, or a process was not
// registered) — kept visible rather than silently dropped.
type Trace struct {
	ID      introspect.TraceID
	Roots   []*Node
	Orphans []*Node
	Spans   int
	Start   int64 // UnixNano of the earliest span start
	End     int64 // UnixNano of the latest span end
}

// DurationSeconds is the trace's wall-clock extent.
func (t *Trace) DurationSeconds() float64 { return float64(t.End-t.Start) / 1e9 }

// Processes returns the distinct process labels in the trace, sorted.
func (t *Trace) Processes() []string {
	seen := map[string]bool{}
	t.Walk(func(n *Node, _ int) { seen[n.Span.Process] = true })
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Walk visits every root and orphan subtree depth-first.
func (t *Trace) Walk(fn func(n *Node, depth int)) {
	for _, r := range t.Roots {
		r.Walk(fn)
	}
	for _, o := range t.Orphans {
		o.Walk(fn)
	}
}

// Find returns the first node (in walk order) whose span has the given
// name.
func (t *Trace) Find(name string) (*Node, bool) {
	var found *Node
	t.Walk(func(n *Node, _ int) {
		if found == nil && n.Span.Name == name {
			found = n
		}
	})
	return found, found != nil
}

// Assemble groups spans by trace id and stitches each group into a
// tree, linking children to parents across process boundaries via the
// span ids the traceparent wire field carried. Traces are returned
// earliest-start first; spans without a trace id (from pre-tracing
// rings) are ignored.
func Assemble(spans []introspect.Span) []*Trace {
	byTrace := map[introspect.TraceID][]introspect.Span{}
	for _, s := range spans {
		if s.Trace.IsZero() {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var out []*Trace
	for id, group := range byTrace {
		out = append(out, assembleOne(id, group))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID.String() < out[j].ID.String()
	})
	return out
}

// AssembleTrace assembles just the spans of one trace id.
func AssembleTrace(spans []introspect.Span, id introspect.TraceID) (*Trace, bool) {
	var group []introspect.Span
	for _, s := range spans {
		if s.Trace == id {
			group = append(group, s)
		}
	}
	if len(group) == 0 {
		return nil, false
	}
	return assembleOne(id, group), true
}

func assembleOne(id introspect.TraceID, group []introspect.Span) *Trace {
	tr := &Trace{ID: id, Spans: len(group)}
	nodes := map[uint64]*Node{}
	for _, s := range group {
		nodes[s.ID] = &Node{Span: s}
		if tr.Start == 0 || s.Start < tr.Start {
			tr.Start = s.Start
		}
		if s.End > tr.End {
			tr.End = s.End
		}
	}
	for _, n := range nodes {
		switch parent := nodes[n.Span.Parent]; {
		case n.Span.Parent == 0:
			tr.Roots = append(tr.Roots, n)
		case parent != nil:
			parent.Children = append(parent.Children, n)
		default:
			tr.Orphans = append(tr.Orphans, n)
		}
	}
	byStart := func(ns []*Node) func(i, j int) bool {
		return func(i, j int) bool {
			if ns[i].Span.Start != ns[j].Span.Start {
				return ns[i].Span.Start < ns[j].Span.Start
			}
			return ns[i].Span.ID < ns[j].Span.ID
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, byStart(n.Children))
	}
	sort.Slice(tr.Roots, byStart(tr.Roots))
	sort.Slice(tr.Orphans, byStart(tr.Orphans))
	return tr
}
