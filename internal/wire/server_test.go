package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// echo is the test protocol: "fail <msg>" is an op that errors, "hold"
// parks until released, anything else is echoed. Every op is logged
// under its first word; a traced one under a span and its own context.
type echo struct {
	flushes atomic.Int32
	entered chan struct{} // a "hold" op reached its handler
	release chan struct{} // lets "hold" ops finish
}

func newEcho() *echo {
	return &echo{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (e *echo) proto() Proto {
	return Proto{
		Name: "echo", OpKey: "verb", MaxLine: 128 << 10, // over the 64 KiB initial buffer, which is a floor
		Handle: func(c *Conn) bool {
			arrival := time.Now().UnixNano()
			verb, rest, _ := strings.Cut(c.Sc.Text(), " ")
			wireCtx := context.Background()
			if remote, ok := introspect.ParseTraceparent(rest); ok {
				wireCtx = introspect.ContextWithSpanContext(wireCtx, remote)
			}
			sctx, span := c.In.StartSpanAt(wireCtx, "echo."+verb, arrival)
			var err error
			switch verb {
			case "fail":
				err = errors.New(rest)
			case "hold":
				e.entered <- struct{}{}
				<-e.release
			}
			span.End(err)
			fmt.Fprintf(c.W, "ECHO %s\n", rest)
			c.LogOp(sctx, wireCtx, verb, arrival, err, "len", fmt.Sprint(len(rest)))
			return verb != "bye"
		},
		ErrorLine: func(w *bufio.Writer, msg string) { fmt.Fprintf(w, "ERROR %s\n", msg) },
		Flush:     func() error { e.flushes.Add(1); return nil },
	}
}

type client struct {
	net.Conn
	r *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn, bufio.NewReader(conn)}
}

func (c *client) do(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c, line); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return strings.TrimSpace(resp)
}

func field(rec logbuf.Record, key string) string {
	for _, f := range rec.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// TestLogOpThreshold pins the slow-op rule: threshold 0 logs every op,
// a negative one only the failed, an unreachable one likewise; "ping"
// and a server without a logger stay silent. Settings take effect on
// the next request of a live connection.
func TestLogOpThreshold(t *testing.T) {
	srv := NewServer(newEcho().proto())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	if got := c.do(t, "say hi"); got != "ECHO hi" {
		t.Fatalf("reply %q", got)
	}
	c.do(t, "fail unlogged") // no logger: nothing to assert but no panic

	for _, tc := range []struct {
		slow time.Duration
		want []string // "<level> <verb>" per record, for: say, ping, fail
	}{
		{0, []string{"warn say", "error fail"}},
		{-1, []string{"error fail"}},
		{time.Hour, []string{"error fail"}},
	} {
		logs := logbuf.New(16)
		srv.SetLogger(logs.With("echo.server"), tc.slow)
		c.do(t, "say hello")
		c.do(t, "ping x")
		c.do(t, "fail boom")
		var got []string
		for _, rec := range logs.Records() {
			got = append(got, rec.Level.String()+" "+field(rec, "verb"))
			if rec.Component != "echo.server" || field(rec, "duration") == "" {
				t.Fatalf("slow=%v: record %+v", tc.slow, rec)
			}
			switch rec.Level {
			case logbuf.Error:
				if rec.Msg != "op failed" || field(rec, "error") != "boom" || field(rec, "len") != "" {
					t.Fatalf("slow=%v: failed-op record %+v", tc.slow, rec)
				}
			case logbuf.Warn:
				if rec.Msg != "slow op" || field(rec, "len") != "5" || field(rec, "traceparent") != "" {
					t.Fatalf("slow=%v: slow-op record %+v", tc.slow, rec)
				}
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Fatalf("slow=%v: records %v, want %v", tc.slow, got, tc.want)
		}
	}
}

// TestSlowOpCarriesTraceparent: a traced op's slow record carries the
// span's trace identity and the wire tag it arrived under.
func TestSlowOpCarriesTraceparent(t *testing.T) {
	srv := NewServer(newEcho().proto())
	srv.SetTracing(introspect.New(introspect.WithProcess("echo")))
	logs := logbuf.New(16)
	srv.SetLogger(logs, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const tp = "00-0123456789abcdef0123456789abcdef-00000000000000aa-01"
	dial(t, addr).do(t, "say "+tp)
	recs := logs.Records()
	if len(recs) != 1 || field(recs[0], "traceparent") != tp {
		t.Fatalf("records %+v, want one carrying %s", recs, tp)
	}
	if want, _ := introspect.ParseTraceparent(tp); recs[0].Trace != want.Trace {
		t.Fatalf("record trace %s, want %s", recs[0].Trace, want.Trace)
	}
}

// TestCloseDrainsThenFlushes: Close lets the request in flight finish,
// runs the flush hook once, after it, and can be called again.
func TestCloseDrainsThenFlushes(t *testing.T) {
	e := newEcho()
	srv := NewServer(e.proto())
	logs := logbuf.New(16)
	srv.SetLogger(logs, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	if _, err := fmt.Fprintln(c, "hold on"); err != nil {
		t.Fatal(err)
	}
	<-e.entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := e.flushes.Load(); n != 0 {
		t.Fatalf("flushed %d times before the handler drained", n)
	}
	close(e.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if recs := logs.Records(); len(recs) != 1 || field(recs[0], "verb") != "hold" {
		t.Fatalf("the in-flight op did not finish: %+v", recs)
	}
	if n := e.flushes.Load(); n != 1 {
		t.Fatalf("flushed %d times on Close, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("still listening after Close")
	}
}

// TestHandlerHangsUp: a false from Handle flushes its reply and closes;
// a line over the cap gets the protocol's error line.
func TestHandlerHangsUp(t *testing.T) {
	srv := NewServer(newEcho().proto())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	if got := c.do(t, "bye now"); got != "ECHO now" {
		t.Fatalf("reply %q", got)
	}
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after a hang-up: %v, want EOF", err)
	}
	// Exactly the cap, no newline: nothing is left unread to turn the
	// close into a reset that would eat the reply.
	c = dial(t, addr)
	if _, err := c.Write([]byte(strings.Repeat("x", 128<<10))); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := c.r.ReadString('\n'); err != nil || got != "ERROR line too long\n" {
		t.Fatalf("oversized line: %q, %v", got, err)
	}
}

func TestListenTakenPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := NewServer(newEcho().proto())
	if _, err := srv.Listen(ln.Addr().String()); err == nil || !strings.HasPrefix(err.Error(), "echo: listen: ") {
		t.Fatalf("Listen on a taken port: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// lateListener loses the race on purpose: Accept hands over its one
// live connection only once Close has been called — which Server.Close
// does holding the lock, after it swept the connection set.
type lateListener struct {
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l *lateListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *lateListener) Addr() net.Addr { return nil }

// TestCloseRefusesLateConnection: a connection accepted while Close runs
// is closed, not served — served, nothing would ever close it and its
// handler would hold Close until the peer chose to leave.
func TestCloseRefusesLateConnection(t *testing.T) {
	srv := NewServer(newEcho().proto())
	server, peer := net.Pipe()
	defer peer.Close()
	srv.Serve(&lateListener{conn: server, closed: make(chan struct{})})
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a connection accepted while it ran")
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection: read %v, want EOF (closed unserved)", err)
	}
}
