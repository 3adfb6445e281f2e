package testkit

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Event is one semantic observation of a simulation: a completed tick
// with the session's cumulative accounting, a fault application, or a
// note. Events carry only schedule-derived state — never wall-clock
// time, span durations or retry counts — so two runs of the same
// scenario produce identical logs.
type Event struct {
	Tick   uint64
	Kind   string // "tick" | "fault" | "note"
	Detail string // fault kind, free text

	// Cumulative collector accounting at the end of the event's tick
	// (data points / fields).
	Expected     uint64
	Inserted     uint64
	Zeros        uint64
	Lost         uint64
	Spilled      uint64
	Replayed     uint64
	SpillDropped uint64
	Pending      uint64
	Degraded     bool
}

// String renders the event as one stable log line.
func (e Event) String() string {
	switch e.Kind {
	case "tick":
		return fmt.Sprintf("tick %03d exp=%d ins=%d zero=%d lost=%d spill=%d replay=%d evict=%d pend=%d degraded=%t",
			e.Tick, e.Expected, e.Inserted, e.Zeros, e.Lost, e.Spilled, e.Replayed, e.SpillDropped, e.Pending, e.Degraded)
	default:
		return fmt.Sprintf("tick %03d %s %s", e.Tick, e.Kind, e.Detail)
	}
}

// EventLog is the ordered record of a simulation.
type EventLog struct {
	Events []Event
}

// Append records one event.
func (l *EventLog) Append(e Event) { l.Events = append(l.Events, e) }

// Lines renders every event.
func (l *EventLog) Lines() []string {
	out := make([]string, len(l.Events))
	for i, e := range l.Events {
		out[i] = e.String()
	}
	return out
}

// String renders the whole log, one event per line.
func (l *EventLog) String() string { return strings.Join(l.Lines(), "\n") }

// Digest hashes the rendered log (FNV-1a): two runs of the same scenario
// must produce equal digests, and a digest mismatch pinpoints a
// nondeterminism bug in the stack itself.
func (l *EventLog) Digest() uint64 {
	h := fnv.New64a()
	for _, line := range l.Lines() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Equal reports whether two logs are identical.
func (l *EventLog) Equal(other *EventLog) bool {
	if len(l.Events) != len(other.Events) {
		return false
	}
	for i := range l.Events {
		if l.Events[i] != other.Events[i] {
			return false
		}
	}
	return true
}

// Diff returns a description of the first divergence between two logs,
// or "" when they are identical — the debugging handle for replay
// mismatches.
func (l *EventLog) Diff(other *EventLog) string {
	a, b := l.Lines(), other.Lines()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d differs:\n  run A: %s\n  run B: %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("log lengths differ: %d vs %d events", len(a), len(b))
	}
	return ""
}
