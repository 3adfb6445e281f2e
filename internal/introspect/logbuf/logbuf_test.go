package logbuf

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pmove/internal/introspect"
)

func TestNilAndZeroSafe(t *testing.T) {
	var l *Logger
	l.Info(context.Background(), "ignored")
	if l.With("x") != nil {
		t.Fatal("nil.With should stay nil")
	}
	if got := l.Records(); got != nil {
		t.Fatalf("nil.Records = %v, want nil", got)
	}
	if l.Dropped() != 0 {
		t.Fatal("nil logger must report empty state")
	}

	var zero Logger
	zero.Info(context.Background(), "ignored")
	if got := zero.Records(); len(got) != 0 {
		t.Fatalf("zero-value Records = %v, want empty", got)
	}
}

func TestAppendOrderAndFields(t *testing.T) {
	l := New(8)
	ctx := context.Background()
	l.Info(ctx, "first", "k", "v")
	l.Warn(ctx, "second", "a", "1", "b", "2")
	l.Error(ctx, "third", "dangling")

	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, want := range []string{"first", "second", "third"} {
		if recs[i].Msg != want {
			t.Fatalf("recs[%d].Msg = %q, want %q", i, recs[i].Msg, want)
		}
	}
	if recs[0].Seq >= recs[1].Seq || recs[1].Seq >= recs[2].Seq {
		t.Fatalf("sequence numbers not increasing: %d %d %d", recs[0].Seq, recs[1].Seq, recs[2].Seq)
	}
	if len(recs[1].Fields) != 2 || recs[1].Fields[1] != (Field{Key: "b", Value: "2"}) {
		t.Fatalf("fields = %v", recs[1].Fields)
	}
	// A trailing key without a value still lands, with an empty value.
	if len(recs[2].Fields) != 1 || recs[2].Fields[0] != (Field{Key: "dangling"}) {
		t.Fatalf("dangling field = %v", recs[2].Fields)
	}
}

func TestEvictionKeepsNewest(t *testing.T) {
	l := New(4)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		l.Info(ctx, fmt.Sprintf("m%d", i))
	}
	recs := l.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want ring capacity 4", len(recs))
	}
	for i, want := range []string{"m6", "m7", "m8", "m9"} {
		if recs[i].Msg != want {
			t.Fatalf("recs[%d].Msg = %q, want %q", i, recs[i].Msg, want)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", l.Dropped())
	}
}

func TestTraceFromContext(t *testing.T) {
	l := New(8)
	sc := introspect.SpanContext{
		Trace:   introspect.TraceID{Hi: 0xdead, Lo: 0xbeef},
		Span:    42,
		Sampled: true,
	}
	ctx := introspect.ContextWithSpanContext(context.Background(), sc)
	l.Info(ctx, "traced")
	l.Info(context.Background(), "untraced")

	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Trace != sc.Trace || recs[0].Span != 42 {
		t.Fatalf("traced record = %+v", recs[0])
	}
	if !recs[1].Trace.IsZero() || recs[1].Span != 0 {
		t.Fatalf("untraced record carries identity: %+v", recs[1])
	}
}

func TestFilterQuery(t *testing.T) {
	l := New(32)
	tr := introspect.TraceID{Hi: 1, Lo: 2}
	ctx := introspect.ContextWithSpanContext(context.Background(),
		introspect.SpanContext{Trace: tr, Span: 7, Sampled: true})
	a := l.With("alpha")
	b := l.With("beta")
	a.Info(ctx, "a1")
	b.Warn(context.Background(), "b1")
	a.Error(ctx, "a2")
	b.Info(ctx, "b2")

	if got := l.Filter(Query{Component: "alpha"}); len(got) != 2 {
		t.Fatalf("component filter: got %d, want 2", len(got))
	}
	if got := l.Filter(Query{Trace: tr}); len(got) != 3 {
		t.Fatalf("trace filter: got %d, want 3", len(got))
	}
	if got := l.Filter(Query{MinLevel: Warn}); len(got) != 2 {
		t.Fatalf("level filter: got %d, want 2", len(got))
	}
	got := l.Filter(Query{Limit: 2})
	if len(got) != 2 || got[0].Msg != "a2" || got[1].Msg != "b2" {
		t.Fatalf("limit filter kept %+v, want newest two", got)
	}
	combined := l.Filter(Query{Trace: tr, Component: "beta"})
	if len(combined) != 1 || combined[0].Msg != "b2" {
		t.Fatalf("combined filter = %+v", combined)
	}
}

// TestConcurrentWritersReaders hammers a tiny ring with parallel writers
// (forcing constant eviction) and parallel readers, under -race. The
// assertions are structural: every snapshotted record is intact (its
// message matches the writer that owns its component) and in sequence
// order.
func TestConcurrentWritersReaders(t *testing.T) {
	l := New(16) // tiny: writers wrap the ring thousands of times
	const writers, perWriter, readers = 8, 2000, 4

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := l.With(fmt.Sprintf("w%d", w))
			ctx := introspect.ContextWithSpanContext(context.Background(),
				introspect.SpanContext{
					Trace:   introspect.TraceID{Hi: uint64(w + 1), Lo: 1},
					Span:    uint64(w + 1),
					Sampled: true,
				})
			for i := 0; i < perWriter; i++ {
				child.Info(ctx, fmt.Sprintf("w%d-%d", w, i), "i", fmt.Sprint(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := l.Records()
				for i, rec := range recs {
					if i > 0 && rec.Seq <= recs[i-1].Seq {
						t.Errorf("snapshot out of order: seq %d after %d", rec.Seq, recs[i-1].Seq)
						return
					}
					// Torn-record check: component and message must agree.
					if rec.Component == "" || rec.Msg[:len(rec.Component)] != rec.Component {
						t.Errorf("torn record: component %q msg %q", rec.Component, rec.Msg)
						return
					}
					if rec.Trace.IsZero() {
						t.Errorf("record lost its trace identity: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	total := writers * perWriter
	if dropped := l.Dropped(); dropped != uint64(total-16) {
		t.Fatalf("Dropped = %d, want %d", dropped, total-16)
	}
	recs := l.Records()
	if len(recs) != 16 {
		t.Fatalf("final snapshot has %d records, want 16", len(recs))
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": Debug, "INFO": Info, "Warn": Warn, "warning": Warn, "error": Error,
	}
	for in, want := range cases {
		got, ok := ParseLevel(in)
		if !ok || got != want {
			t.Fatalf("ParseLevel(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Fatal("ParseLevel accepted junk")
	}
	if Debug.String() != "debug" || Error.String() != "error" || Level(99).String() != "unknown" {
		t.Fatal("Level.String mismatch")
	}
}
