package tsdb

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// TestSlowOpLogCarriesClientTraceID asserts the observability plane's
// core join end to end over a real socket: the server-side slow-op log
// record and the client-side span for the same op carry the same
// 128-bit TraceID, and the record's traceparent field is the literal
// wire tag the client stamped on the frame.
func TestSlowOpLogCarriesClientTraceID(t *testing.T) {
	srv := NewServer(New())
	srvIn := introspect.New(introspect.WithProcess("tsdb"))
	srv.SetTracing(srvIn)
	logs := logbuf.New(64)
	// Threshold zero: every op is "slow", so the test never depends on
	// real latency.
	srv.SetLogger(logs.With("tsdb.server"), 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientIn := introspect.New(introspect.WithProcess("client"))
	c.Transport().SetIntrospection(clientIn, "tsdb")

	ctx, span := clientIn.StartSpan(context.Background(), "client.monitor.tick")
	clientSC, ok := introspect.SpanContextFromContext(ctx)
	if !ok || !clientSC.Valid() {
		t.Fatal("client span context missing")
	}
	if clientSC.Trace.Hi == 0 && clientSC.Trace.Lo == 0 {
		t.Fatal("client trace id is zero")
	}
	pts := []Point{
		{Measurement: "m", Tags: map[string]string{"host": "a"},
			Fields: map[string]float64{"v": 1}, Time: 1},
		{Measurement: "m", Tags: map[string]string{"host": "a"},
			Fields: map[string]float64{"v": 2}, Time: 2},
	}
	if err := c.WriteBatchContext(ctx, pts); err != nil {
		t.Fatal(err)
	}
	span.End(nil)

	recs := logs.Filter(logbuf.Query{Trace: clientSC.Trace})
	if len(recs) != 1 {
		t.Fatalf("got %d records for the client trace, want 1: %+v", len(recs), logs.Records())
	}
	rec := recs[0]
	if rec.Msg != "slow op" || rec.Level != logbuf.Warn {
		t.Fatalf("record = %+v, want slow-op warn", rec)
	}
	if rec.Component != "tsdb.server" {
		t.Fatalf("component = %q", rec.Component)
	}
	if rec.Trace != clientSC.Trace {
		t.Fatalf("record trace %s != client trace %s", rec.Trace, clientSC.Trace)
	}
	// The client span recorded on the client side is in the same trace.
	found := false
	for _, s := range clientIn.Tracer().Spans() {
		if s.Name == "client.monitor.tick" {
			found = true
			if s.Trace != clientSC.Trace {
				t.Fatalf("client span trace %s != %s", s.Trace, clientSC.Trace)
			}
		}
	}
	if !found {
		t.Fatal("client-side span not recorded")
	}
	// The traceparent field is the wire tag: it parses, names the same
	// trace, and its parent span is one of the client's spans (the
	// transport attempt that carried the frame).
	var tp string
	for _, f := range rec.Fields {
		if f.Key == "traceparent" {
			tp = f.Value
		}
	}
	if tp == "" {
		t.Fatalf("record lacks traceparent field: %+v", rec.Fields)
	}
	wireSC, ok := introspect.ParseTraceparent(tp)
	if !ok || wireSC.Trace != clientSC.Trace {
		t.Fatalf("traceparent %q does not join the client trace %s", tp, clientSC.Trace)
	}
	if cmd := fieldValue(rec, "cmd"); cmd != "writeb" {
		t.Fatalf("cmd field = %q", cmd)
	}
}

func fieldValue(rec logbuf.Record, key string) string {
	for _, f := range rec.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// TestSlowOpLogsDedupedRetry: under SetLogger(lg, 0) every op is logged,
// the deduplicated retry of an applied batch included — same ack, one
// more writeb record flagged dedup=true, rows counted once.
func TestSlowOpLogsDedupedRetry(t *testing.T) {
	db := New()
	srv := NewServer(db)
	logs := logbuf.New(64)
	srv.SetLogger(logs.With("tsdb.server"), 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := conn.Write([]byte("WRITEB 2 id=retry-tok\nm v=1 1\nm v=2 2\n")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if resp, err := r.ReadString('\n'); err != nil || strings.TrimSpace(resp) != "OK 2" {
			t.Fatalf("attempt %d: got %q, %v; want OK 2", attempt, resp, err)
		}
	}
	// Each record is logged before its ack is flushed.
	recs := logs.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want one per frame: %+v", len(recs), recs)
	}
	for i, rec := range recs {
		if cmd := fieldValue(rec, "cmd"); cmd != "writeb" {
			t.Fatalf("record %d: cmd = %q", i, cmd)
		}
	}
	if d := fieldValue(recs[0], "dedup"); d != "" {
		t.Fatalf("first apply flagged dedup=%q", d)
	}
	if d := fieldValue(recs[1], "dedup"); d != "true" {
		t.Fatalf("retry not flagged: %+v", recs[1])
	}
	if points, _ := db.Stats(); points != 2 {
		t.Fatalf("server holds %d points after the retry, want 2", points)
	}
}

// TestSlowOpConcurrentWriters drives many traced client ops against one
// server while a reader drains the ring — the race-detector companion
// to the correlation test, and a check that concurrent ops never
// cross-contaminate trace identities.
func TestSlowOpConcurrentWriters(t *testing.T) {
	srv := NewServer(New())
	srvIn := introspect.New(introspect.WithProcess("tsdb"))
	srv.SetTracing(srvIn)
	logs := logbuf.New(256)
	srv.SetLogger(logs.With("tsdb.server"), 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	var wg sync.WaitGroup
	traces := make([]introspect.TraceID, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			in := introspect.New(introspect.WithProcess("client"))
			c.Transport().SetIntrospection(in, "tsdb")
			ctx, span := in.StartSpan(context.Background(), "tick")
			sc, _ := introspect.SpanContextFromContext(ctx)
			traces[i] = sc.Trace
			for j := 0; j < 20; j++ {
				p := Point{Measurement: "m", Tags: map[string]string{"host": "h"},
					Fields: map[string]float64{"v": float64(j)}, Time: int64(j + 1)}
				if err := c.WriteBatchContext(ctx, []Point{p}); err != nil {
					t.Error(err)
					return
				}
			}
			span.End(nil)
		}(i)
	}
	// Concurrent reader: drains snapshots while the writers hammer the
	// ring, so -race exercises writer/reader interleavings.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = logs.Records()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	// Every acknowledged op logged before its ack flushed, so the ring
	// is complete once all clients returned.
	for i, tr := range traces {
		n := len(logs.Filter(logbuf.Query{Trace: tr}))
		if n != 20 {
			t.Fatalf("client %d: %d records for its trace, want 20", i, n)
		}
	}
}
