package tsdb

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// stubServer answers a client as a Server does, with PONG to a PING,
// "OK 5" to a WRITEB of 5 points once its body is read and stubQueryReply
// to a QUERY, and hands each WRITEB header line and QUERY line to header,
// when it is not nil. It reads with one
// kept reader per connection and writes constant replies, so it
// allocates nothing per request: testing.AllocsPerRun counts the client
// alone.
func stubServer(t *testing.T, header func(line []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	pong, ok := []byte("PONG\n"), []byte("OK 5\n")
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 64<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			reply := pong
			if bytes.HasPrefix(line, []byte("QUERY ")) {
				if header != nil {
					header(line)
				}
				reply = stubQueryReply
			}
			if bytes.HasPrefix(line, []byte("WRITEB 5 ")) {
				if header != nil {
					header(line)
				}
				for i := 0; i < 5; i++ {
					if _, err := r.ReadSlice('\n'); err != nil {
						return
					}
				}
				reply = ok
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// stubQueryReply is a cached live_monitor panel's reply: count and mean
// over 16 windows.
var stubQueryReply = func() []byte {
	res := &Result{Measurement: "m", Columns: []string{"count(v)", "mean(v)"}}
	for i := range 16 {
		res.Rows = append(res.Rows, Row{Time: int64(i) * 16e9,
			Values: map[string]float64{"count(v)": 16, "mean(v)": float64(i*16) + 7.5}})
	}
	return append(replyLine(res), '\n')
}()

// TestClientOpAllocations: a warm client op allocates nothing of its
// own — no span or metric name rendered per op, no token formatted, no
// reply line copied — for a WriteBatchContext of BenchmarkClientWriteBatch's
// tick and for a PingContext. A QueryContext of a cached panel refresh
// sends the statement as written, in a pooled frame: beside the
// Result's row maps, which the exported Row costs, it allocates what
// parsing the statement and decoding the reply take.
func TestClientOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	c, err := Dial(stubServer(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps := clientTick()
	ctx := context.Background()
	write := func() {
		if err := c.WriteBatchContext(ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	ping := func() {
		if err := c.PingContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const stmt = `SELECT count("v"), mean("v") FROM "m" WHERE time >= 0 GROUP BY time(16s)`
	var res *Result
	query := func() {
		var err error
		if res, err = c.QueryContext(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	write()
	ping()
	query()
	w, p, q := testing.AllocsPerRun(100, write), testing.AllocsPerRun(100, ping), testing.AllocsPerRun(100, query)
	perMap := testing.AllocsPerRun(20, func() {
		m := make(map[string]float64, 2)
		m["count(v)"], m["mean(v)"] = 1, 2
		sinkResult = &Result{Rows: []Row{{Values: m}}}
	}) - 2 // the Result and its one-row slice
	maps := float64(len(res.Rows)) * perMap
	t.Logf("objects per write of 5×88: %v, per ping: %v, per %d-row query: %v, %v of them row maps", w, p, len(res.Rows), q, maps)
	if len(res.Rows) != 16 {
		t.Fatalf("query decoded %d rows, want 16", len(res.Rows))
	}
	if q-maps > 22 {
		t.Errorf("a warm QueryContext allocates %v objects beside its row maps; want at most 22", q-maps)
	}
	if w > 0 {
		t.Errorf("a warm WriteBatchContext allocates %v objects; want none", w)
	}
	if p > 0 {
		t.Errorf("a warm PingContext allocates %v objects; want none", p)
	}
}

// TestBatchTokenUnique: the idempotency tokens that concurrent clients
// append to their frames never repeat — the whole exactly-once scheme
// rests on two logical batches never sharing one.
func TestBatchTokenUnique(t *testing.T) {
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool, workers*per)
	addr := stubServer(t, func(line []byte) {
		_, tok, _ := strings.Cut(strings.TrimSpace(string(line)), " id=")
		mu.Lock()
		defer mu.Unlock()
		if seen[tok] {
			t.Errorf("duplicate token %q", tok)
		}
		seen[tok] = true
	})
	ps := make([]Point, 5)
	for i := range ps {
		ps[i] = Point{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: int64(i)}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				if err := c.WriteBatchContext(context.Background(), ps); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != workers*per {
		t.Fatalf("%d distinct tokens, want %d", len(seen), workers*per)
	}
	for tok := range seen {
		if !strings.HasPrefix(tok, tokenNonce+"-") {
			t.Fatalf("token %q lacks the process nonce %q", tok, tokenNonce)
		}
	}
}

// TestClientSendsStatementAsWritten: a statement goes out byte for byte as
// the caller wrote it, and only one with a line break or a carriage return,
// which the server's line reader would drop, in its canonical form.
func TestClientSendsStatementAsWritten(t *testing.T) {
	sent := make(chan string, 1)
	c, err := Dial(stubServer(t, func(line []byte) { sent <- string(line) }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for stmt, want := range map[string]string{
		`SELECT mean(v) FROM m GROUP BY time(16s)`: "QUERY SELECT mean(v) FROM m GROUP BY time(16s)\n",
		"SELECT mean(v)\nFROM m":                   "QUERY SELECT mean(\"v\") FROM \"m\"\n",
		"SELECT mean(v) FROM m\r":                  `QUERY SELECT mean("v") FROM "m"` + "\n",
		"SELECT mean(v) FROM \"m\r\"":              `QUERY SELECT mean("v") FROM "m\r"` + "\n",
	} {
		if _, err := c.QueryContext(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
		if got := <-sent; got != want {
			t.Errorf("%q went out as %q, want %q", stmt, got, want)
		}
	}
}

// TestCRLFStatement: a carriage return is whitespace to the parser, so
// a statement written with CRLF line ends is the one written with LF,
// parsed and answered the same embedded and through Client.
func TestCRLFStatement(t *testing.T) {
	const lf, crlf = "SELECT mean(v)\nFROM m\nWHERE host='a'", "SELECT mean(v)\r\nFROM m\r\nWHERE host='a'\r\n"
	want, err := ParseQuery(lf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseQuery(crlf); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q parses to %+v (%v), want %+v", crlf, got, err, want)
	}
	db := New()
	if err := db.WriteBatchContext(context.Background(), []Point{
		{Measurement: "m", Tags: map[string]string{"host": "a"}, Fields: map[string]float64{"v": 1}, Time: 1},
		{Measurement: "m", Tags: map[string]string{"host": "a"}, Fields: map[string]float64{"v": 2}, Time: 2},
	}); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for label, query := range map[string]func(string) (*Result, error){
		"embedded": func(stmt string) (*Result, error) {
			return db.ExecuteContext(context.Background(), QueryRequest{Statement: stmt, SkipCache: true})
		},
		"client": func(stmt string) (*Result, error) { return c.QueryContext(context.Background(), stmt) },
	} {
		exp, err := query(lf)
		if err != nil || len(exp.Rows) != 1 || exp.Rows[0].Values["mean(v)"] != 1.5 {
			t.Fatalf("%s: %q answers %+v (%v), want one row of mean 1.5", label, lf, exp, err)
		}
		if got, err := query(crlf); err != nil || !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: %q answers %+v (%v), want %+v", label, crlf, got, err, exp)
		}
	}
}
