package tsdb

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
	"pmove/internal/storage"
)

// The server's own rules, apart from any verb: which ops its log
// records, how Close ends a session, and how Listen fails.

// rawDo sends one request line on conn and returns its reply line.
func rawDo(t *testing.T, conn net.Conn, r *bufio.Reader, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return strings.TrimSpace(resp)
}

// TestServerLogOpThreshold pins the slow-op rule: threshold 0 logs every
// op, a negative one only the failed, an unreachable one likewise; PING
// and a server without a logger stay silent. A setting takes effect on
// the next request of a live connection.
func TestServerLogOpThreshold(t *testing.T) {
	db := New()
	if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	const query = `QUERY SELECT count("v") FROM "m"`
	if got := rawDo(t, conn, r, query); !strings.HasPrefix(got, "{") {
		t.Fatalf("reply %q", got)
	}
	rawDo(t, conn, r, "FROB unlogged") // no logger: nothing to assert but no panic

	for _, tc := range []struct {
		slow time.Duration
		want []string // "<level> <cmd>" per record, for: QUERY, PING, FROB
	}{
		{0, []string{"warn query", "error unknown"}},
		{-1, []string{"error unknown"}},
		{time.Hour, []string{"error unknown"}},
	} {
		logs := logbuf.New(16)
		srv.SetLogger(logs.With("tsdb.server"), tc.slow)
		rawDo(t, conn, r, query)
		rawDo(t, conn, r, "PING")
		rawDo(t, conn, r, "FROB boom")
		var got []string
		for _, rec := range logs.Records() {
			got = append(got, rec.Level.String()+" "+fieldValue(rec, "cmd"))
			if rec.Component != "tsdb.server" || fieldValue(rec, "duration") == "" {
				t.Fatalf("slow=%v: record %+v", tc.slow, rec)
			}
			switch rec.Level {
			case logbuf.Error:
				if rec.Msg != "op failed" || fieldValue(rec, "error") != `unknown command "FROB"` || fieldValue(rec, "rows") != "" {
					t.Fatalf("slow=%v: failed-op record %+v", tc.slow, rec)
				}
			case logbuf.Warn:
				if rec.Msg != "slow op" || fieldValue(rec, "rows") != "1" || fieldValue(rec, "traceparent") != "" {
					t.Fatalf("slow=%v: slow-op record %+v", tc.slow, rec)
				}
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Fatalf("slow=%v: records %v, want %v", tc.slow, got, tc.want)
		}
	}
}

// TestServerCloseDrainsThenSyncs: Close lets the request in flight
// finish, then syncs — under FsyncNever a crash after Close keeps the
// frame — stops listening, and can be called again. The WRITEB handler is
// held in its insert by the data lock, held here exclusively.
func TestServerCloseDrainsThenSyncs(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	in := introspect.New(introspect.WithProcess("tsdb"))
	srv.SetTracing(in)
	logs := logbuf.New(16)
	srv.SetLogger(logs, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	db.mu.Lock()
	locked := true
	defer func() {
		if locked {
			db.mu.Unlock()
		}
	}()
	if _, err := conn.Write([]byte("WRITEB 2\nm v=1 1\nm v=2 2\n")); err != nil {
		t.Fatal(err)
	}
	// Past its parse span the handler is on its way to the data lock.
	for deadline, parsed := time.Now().Add(5*time.Second), false; !parsed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the frame was never parsed")
		}
		for _, sp := range in.Tracer().Spans() {
			parsed = parsed || sp.Name == "tsdb.server.parse"
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	locked = false
	db.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if recs := logs.Records(); len(recs) != 1 || recs[0].Msg != "slow op" || fieldValue(recs[0], "cmd") != "writeb" {
		t.Fatalf("the in-flight op did not finish: %+v", recs)
	}
	// The crash comes before the second Close, whose sync would cover a
	// first one that ran too early.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("still listening after Close")
	}
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if points, _ := re.Stats(); points != 2 {
		t.Fatalf("%d points after Close, a crash and a reopen, want the in-flight frame's 2", points)
	}
}

func TestServerListenTakenPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := NewServer(New())
	if _, err := srv.Listen(ln.Addr().String()); err == nil || !strings.HasPrefix(err.Error(), "tsdb: listen: ") {
		t.Fatalf("Listen on a taken port: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
