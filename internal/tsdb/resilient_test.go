package tsdb

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pmove/internal/introspect/logbuf"
	"pmove/internal/resilience"
)

// testPolicy is a fast-failing policy for tests.
func testPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  time.Second,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		MaxRetries:   3,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Breaker:      resilience.BreakerConfig{Threshold: 4, Cooldown: 40 * time.Millisecond},
		Seed:         5,
	}
}

func startServer(t testing.TB, db *DB) (*Server, string) {
	t.Helper()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestServerLineTooLong exercises the scanner-overflow fix: a line over
// the 8 MiB buffer now gets an explicit "ERR line too long" instead of a
// silent disconnect.
func TestServerLineTooLong(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Exactly the scanner's 8 MiB cap with no newline: the server consumes
	// every byte, hits bufio.ErrTooLong, and can answer cleanly (no unread
	// bytes to trigger an RST on close).
	w := bufio.NewWriterSize(conn, 1<<20)
	w.WriteString("QUERY ")
	w.WriteString(strings.Repeat("x", 8<<20-len("QUERY ")))
	if err := w.Flush(); err != nil {
		t.Fatalf("flush oversized line: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("server hung up without answering: %v", err)
	}
	if want := "ERR line too long"; strings.TrimSpace(resp) != want {
		t.Fatalf("got %q, want %q", strings.TrimSpace(resp), want)
	}
}

// TestServerBatchBodyLineTooLong: the same overflow inside a WRITEB body
// used to be a bare EOF logged as "connection lost" — the verb was
// reading, so nobody looked at the scanner's error.
func TestServerBatchBodyLineTooLong(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	logs := logbuf.New(8)
	srv.SetLogger(logs, -1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header, then a body line of exactly the cap with no newline (see
	// TestServerLineTooLong for why exactly).
	w := bufio.NewWriterSize(conn, 1<<20)
	w.WriteString("WRITEB 1\nm v=")
	w.WriteString(strings.Repeat("9", 8<<20-len("m v=")))
	if err := w.Flush(); err != nil {
		t.Fatalf("flush oversized body: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("server hung up without answering: %v", err)
	}
	if want := "ERR line too long"; strings.TrimSpace(resp) != want {
		t.Fatalf("got %q, want %q", strings.TrimSpace(resp), want)
	}
	// Logged before the reply was flushed, under its real cause.
	recs := logs.Records()
	if len(recs) != 1 || fieldValue(recs[0], "cmd") != "writeb" ||
		!strings.Contains(fieldValue(recs[0], "error"), bufio.ErrTooLong.Error()) {
		t.Fatalf("records %+v, want one failed writeb naming %v", recs, bufio.ErrTooLong)
	}
}

// TestServerUnknownVerbLogged: a rejected frame leaves the ordinary
// failed-op record, and the session goes on.
func TestServerUnknownVerbLogged(t *testing.T) {
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
	for _, tc := range [][2]string{{"FROB x", `ERR unknown command "FROB"`}, {"PING", "PONG"}} {
		fmt.Fprintln(conn, tc[0])
		if resp, err := r.ReadString('\n'); err != nil || strings.TrimSpace(resp) != tc[1] {
			t.Fatalf("%s: got %q, %v; want %q", tc[0], resp, err, tc[1])
		}
	}
	recs := logs.Records()
	if len(recs) != 1 || recs[0].Msg != "op failed" || fieldValue(recs[0], "cmd") != "unknown" ||
		fieldValue(recs[0], "error") != `unknown command "FROB"` {
		t.Fatalf("records %+v, want one failed op cmd=unknown", recs)
	}
}

// TestClientNoDesyncAfterTimeout reproduces the protocol-desync bug the
// seed client had: an op that times out mid-response used to leave the
// stale response on the wire for the next call to misparse. The resilient
// client drops the wire on any I/O error and resyncs via PING, so the
// next op parses its own response.
func TestClientNoDesyncAfterTimeout(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{}, 1)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pol := testPolicy()
	pol.MaxRetries = 0 // fail the op outright, then verify recovery
	c, err := DialPolicy(paddr, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := Point{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: 1}
	if err := c.WriteBatchContext(context.Background(), []Point{p}); err != nil {
		t.Fatal(err)
	}
	// Stall the link: the write request reaches the void, the response
	// never arrives, the op times out. The reply may still be in flight
	// when the link heals — exactly the desync window.
	proxy.Partition()
	p.Time = 2
	if err := c.WriteBatchContext(context.Background(), []Point{p}); err == nil {
		t.Fatal("partitioned write should fail")
	}
	proxy.Heal()
	// Every subsequent op must parse its own response. A QUERY after the
	// failed write is the historical misparse (it used to read "OK").
	res, err := c.QueryContext(context.Background(), `SELECT "v" FROM "m"`)
	if err != nil {
		t.Fatalf("query after failed write: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Time != 1 {
		t.Fatalf("query misparsed after failure: %+v", res)
	}
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
}

// TestClientDeadlineUnderPartition proves no client op hangs when the
// server is partitioned — the acceptance criterion for deadlines.
func TestClientDeadlineUnderPartition(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{}, 1)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 1
	c, err := DialPolicy(paddr, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy.Partition()
	done := make(chan error, 1)
	go func() {
		done <- c.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: 1}})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("partitioned write should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client write hung under partition — deadlines not observed")
	}
}

// TestClientConcurrentRace hammers one shared client from many
// goroutines against a live server (run under -race).
func TestClientConcurrentRace(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers, ops = 8, 40
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch i % 3 {
				case 0:
					err := c.WriteBatchContext(context.Background(), []Point{{
						Measurement: "race",
						Tags:        map[string]string{"w": fmt.Sprintf("%d", wkr)},
						Fields:      map[string]float64{"v": float64(i)},
						Time:        int64(wkr*ops + i),
					}})
					if err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.QueryContext(context.Background(), `SELECT "v" FROM "race"`); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := c.PingContext(context.Background()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	pts, _ := db.Stats()
	want := uint64(workers * ((ops + 2) / 3))
	if pts != want {
		t.Fatalf("server recorded %d points, want %d", pts, want)
	}
}

// TestClientSurvivesInjectedFaults runs each injectable fault type
// through the real protocol stack.
func TestClientSurvivesInjectedFaults(t *testing.T) {
	cases := []struct {
		name   string
		faults resilience.Faults
	}{
		{"latency", resilience.Faults{Latency: 5 * time.Millisecond, LatencyJitter: 5 * time.Millisecond}},
		{"slow", resilience.Faults{SlowChunk: 3, Latency: time.Millisecond}},
		{"reset", resilience.Faults{ResetAfterBytes: 256}},
		{"flappy", resilience.Faults{FlapFirst: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := New()
			srv, addr := startServer(t, db)
			defer srv.Close()
			proxy := resilience.NewProxy(addr, tc.faults, 9)
			paddr, err := proxy.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			pol := testPolicy()
			pol.MaxRetries = 5
			pol.Breaker.Threshold = 0
			pol.ReadTimeout = 2 * time.Second
			pol.WriteTimeout = 2 * time.Second
			// Dial is deliberately single-attempt (bad addresses fail
			// fast), so under flappy accepts the initial connect itself
			// may need a few tries.
			var c *Client
			for i := 0; i < 6; i++ {
				if c, err = DialPolicy(paddr, pol); err == nil {
					break
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wrote := 0
			for i := 0; i < 12; i++ {
				err := c.WriteBatchContext(context.Background(), []Point{{Measurement: "f", Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}})
				if err == nil {
					wrote++
				}
			}
			if wrote < 10 {
				t.Fatalf("only %d/12 writes survived %s faults", wrote, tc.name)
			}
			pts, _ := db.Stats()
			// At-least-once under retry: the DB may hold duplicates of a
			// write whose ack was lost, never fewer than acked.
			if pts < uint64(wrote) {
				t.Fatalf("server holds %d points, client acked %d", pts, wrote)
			}
		})
	}
}

// TestClientPingDropsDesyncedWire: a PING answered with anything but PONG
// fails the call and drops the wire, as the resync probe does, so the
// next op redials instead of reading its reply off a stream out of step.
func TestClientPingDropsDesyncedWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(first bool) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for line := 0; sc.Scan(); line++ {
					reply := "PONG\n"
					if first && line == 1 {
						reply = "OK 1\n" // the first wire's second PING
					}
					if _, err := conn.Write([]byte(reply)); err != nil {
						return
					}
				}
			}(n == 0)
		}
	}()
	pol := testPolicy()
	pol.MaxRetries = 0
	c, err := DialPolicy(ln.Addr().String(), pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.PingContext(ctx); err == nil || !strings.Contains(err.Error(), "unexpected ping response") {
		t.Fatalf("PING answered out of step: %v, want the unexpected response", err)
	}
	if err := c.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Dials; d != 2 {
		t.Fatalf("%d dials, want 2: the out-of-step wire is dropped, not reused", d)
	}
}

// TestClientLongReplyDecodes: a QUERY reply longer than the wire's
// 4 KiB read buffer, read in fragments into the client's reply buffer,
// decodes to the result the store computed — and so does a short reply
// after it and a long one again, through the reused buffer. A reply over
// 1 MiB decodes as well, and its buffer is not kept.
func TestClientLongReplyDecodes(t *testing.T) {
	db := New()
	var ps []Point
	for i := 0; i < 14000; i++ {
		ps = append(ps, Point{Measurement: "wide", Tags: map[string]string{"host": "a"},
			Fields: map[string]float64{"value_with_a_long_field_name": float64(i) / 7, "second": float64(i)}, Time: int64(i + 1)})
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		stmt      string
		minBytes  int
		keepsLine bool
	}{
		{`SELECT * FROM "wide" WHERE time <= 100`, 4 << 10, true},
		{`SELECT count("second") FROM "wide"`, 0, true},
		{`SELECT "value_with_a_long_field_name" FROM "wide" WHERE time <= 200`, 8 << 10, true},
		{`SELECT * FROM "wide"`, 1 << 20, false},
	} {
		want, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: tc.stmt})
		if err != nil {
			t.Fatal(err)
		}
		if reply, err := appendResult(nil, want); err != nil || len(reply) < tc.minBytes {
			t.Fatalf("%s: a %d-byte reply (%v), want at least %d", tc.stmt, len(reply), err, tc.minBytes)
		}
		got, err := c.QueryContext(context.Background(), tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the client decoded %d rows, the store computed %d, and they differ", tc.stmt, len(got.Rows), len(want.Rows))
		}
		if kept := c.reply != nil; tc.minBytes > 4<<10 && kept != tc.keepsLine {
			t.Fatalf("%s: reply buffer of %d bytes kept %v, want %v", tc.stmt, cap(c.reply), kept, tc.keepsLine)
		}
	}
}
