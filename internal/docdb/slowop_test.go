package docdb

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

func fieldValue(rec logbuf.Record, key string) string {
	for _, f := range rec.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// TestSlowOpLogCarriesClientTraceID is tsdb's correlation test for the
// JSON protocol: the slow-op record names the op under "op", joins the
// client's trace, and echoes the traceparent the request carried. The
// pings (the dial's resync probe, and one explicit) leave no record.
func TestSlowOpLogCarriesClientTraceID(t *testing.T) {
	srv := NewServer(New())
	srv.SetTracing(introspect.New(introspect.WithProcess("docdb")))
	logs := logbuf.New(16)
	srv.SetLogger(logs.With("docdb.server"), 0) // every op is "slow"
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
	c.Transport().SetIntrospection(clientIn, "docdb")

	ctx, span := clientIn.StartSpan(context.Background(), "client.kb.store")
	clientSC, _ := introspect.SpanContextFromContext(ctx)
	if err := c.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertContext(ctx, "kb", Doc{"x": 1.0}); err != nil {
		t.Fatal(err)
	}
	span.End(nil)

	recs := logs.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want the insert alone: %+v", len(recs), recs)
	}
	rec := recs[0]
	if rec.Msg != "slow op" || rec.Level != logbuf.Warn || rec.Component != "docdb.server" {
		t.Fatalf("record = %+v, want a docdb.server slow-op warn", rec)
	}
	if fieldValue(rec, "op") != "insert" || fieldValue(rec, "duration") == "" {
		t.Fatalf("fields = %+v", rec.Fields)
	}
	if rec.Trace != clientSC.Trace {
		t.Fatalf("record trace %s != client trace %s", rec.Trace, clientSC.Trace)
	}
	if wireSC, ok := introspect.ParseTraceparent(fieldValue(rec, "traceparent")); !ok || wireSC.Trace != clientSC.Trace {
		t.Fatalf("traceparent %q does not join the client trace %s", fieldValue(rec, "traceparent"), clientSC.Trace)
	}
}

// TestServerRejectedFrameLogged: a frame that is not JSON, and one whose
// op nobody serves, each leave the ordinary failed-op record; the
// session goes on.
func TestServerRejectedFrameLogged(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	logs := logbuf.New(8)
	srv.SetLogger(logs, -1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	for _, tc := range [][2]string{
		{`{"op":`, `"error":"unexpected end of JSON input"`},
		{`{"op":"frob"}`, `"error":"unknown op \"frob\""`},
		{`{"op":"ping"}`, `"ok":true`},
	} {
		fmt.Fprintln(conn, tc[0])
		if resp, err := r.ReadString('\n'); err != nil || !strings.Contains(resp, tc[1]) {
			t.Fatalf("%s: got %q, %v; want %s", tc[0], resp, err, tc[1])
		}
	}
	var got []string
	for _, rec := range logs.Records() {
		if rec.Msg != "op failed" || fieldValue(rec, "error") == "" {
			t.Fatalf("record %+v, want a failed op", rec)
		}
		got = append(got, fieldValue(rec, "op"))
	}
	if strings.Join(got, ",") != "invalid,frob" {
		t.Fatalf("logged ops %v, want [invalid frob]", got)
	}
}
