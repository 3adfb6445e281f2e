package tsdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/storage"
)

// TestConcurrentWritersConservation is the data-lock stress oracle: 64
// concurrent writers over 8 measurements, each point written exactly
// once, and Stats() plus per-measurement CountValues must account for
// every write. Run under -race this also proves the locking is sound.
func TestConcurrentWritersConservation(t *testing.T) {
	const (
		writers      = 64
		measurements = 8
		perWriter    = 50
	)
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := fmt.Sprintf("m%d", w%measurements)
			for i := 0; i < perWriter; i++ {
				// Per-writer disjoint timestamps keep the duplicate check
				// meaningful.
				p := Point{
					Measurement: m,
					Fields:      map[string]float64{"v": float64(i), "w": float64(w)},
					Time:        int64(w*perWriter + i),
				}
				if err := db.WriteBatchContext(context.Background(), []Point{p}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	points, values := db.Stats()
	if want := uint64(writers * perWriter); points != want {
		t.Fatalf("Stats points = %d, want %d", points, want)
	}
	if want := uint64(writers * perWriter * 2); values != want {
		t.Fatalf("Stats values = %d, want %d", values, want)
	}
	var stored uint64
	names := db.Measurements()
	if len(names) != measurements {
		t.Fatalf("got %d measurements, want %d", len(names), measurements)
	}
	for _, m := range names {
		n, _ := db.CountValues(m)
		stored += n
	}
	if stored != values {
		t.Fatalf("measurements hold %d values, Stats reports %d", stored, values)
	}
}

// TestConcurrentWritersBatches mixes concurrent batch writers with
// readers: conservation must hold and every series must stay time-ordered.
func TestConcurrentWritersBatches(t *testing.T) {
	const (
		writers   = 16
		batches   = 20
		batchSize = 8
	)
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ps := make([]Point, batchSize)
				for i := range ps {
					ps[i] = Point{
						Measurement: fmt.Sprintf("m%d", (w+i)%8),
						Fields:      map[string]float64{"v": 1},
						Time:        int64(w*1e6 + b*batchSize + i),
					}
				}
				if err := db.WriteBatchContext(context.Background(), ps); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
				// Interleave reads to exercise the RLock paths.
				db.Stats()
				db.CountValues("m0")
			}
		}(w)
	}
	wg.Wait()
	points, _ := db.Stats()
	if want := uint64(writers * batches * batchSize); points != want {
		t.Fatalf("Stats points = %d, want %d", points, want)
	}
	for _, m := range db.Measurements() {
		res, err := db.ExecuteContext(context.Background(), QueryRequest{Query: &Query{Fields: []string{"*"}, Measurement: m}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i].Time < res.Rows[i-1].Time {
				t.Fatalf("%s: rows out of time order at %d", m, i)
			}
		}
	}
}

// TestBatchVisibleWhole is the visibility contract of the one data
// lock: a batch spanning several measurements becomes visible whole, so
// a reader polling Stats() while writers land k-row batches only ever
// sees whole multiples of a batch — never part of a tick.
func TestBatchVisibleWhole(t *testing.T) {
	const (
		writers = 4
		batches = 300
		k       = 6 // rows per batch, two per measurement
		fields  = 2
	)
	names := []string{"bulk_a", "bulk_b", "bulk_c"}
	db := New()
	done := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			points, values := db.Stats()
			if points%k != 0 || values%(k*fields) != 0 {
				t.Errorf("Stats() = %d points, %d values: part of a %d-row batch is visible", points, values, k)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ps := make([]Point, k)
				for i := range ps {
					ps[i] = Point{
						Measurement: names[i%len(names)],
						Tags:        map[string]string{"w": fmt.Sprint(w)},
						Fields:      map[string]float64{"x": 1, "y": 2},
						Time:        int64(b*k + i),
					}
				}
				if err := db.WriteBatchContext(context.Background(), ps); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if points, _ := db.Stats(); points != writers*batches*k {
		t.Fatalf("Stats points = %d, want %d", points, writers*batches*k)
	}
}

// TestWriteBatchAtomicRejection: a batch with one invalid point is
// rejected whole — typed *BatchError naming the offending index, zero
// points applied, no state change anywhere.
func TestWriteBatchAtomicRejection(t *testing.T) {
	db := New()
	ps := []Point{
		{Measurement: "good", Fields: map[string]float64{"v": 1}, Time: 1},
		{Measurement: "good", Fields: map[string]float64{"v": 2}, Time: 2},
		{Measurement: "", Fields: map[string]float64{"v": 3}, Time: 3}, // invalid
	}
	err := db.WriteBatchContext(context.Background(), ps)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if be.Index != 2 {
		t.Fatalf("BatchError{Index: %d}, want {2}", be.Index)
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("rejected batch left %d points behind (atomicity violated)", points)
	}
	if n := len(db.Measurements()); n != 0 {
		t.Fatalf("rejected batch created %d measurements", n)
	}
}

// TestWriteBatchEmptyAndCancelled covers the trivial edges: an empty
// batch is a no-op, a cancelled context is refused before any work.
func TestWriteBatchEmptyAndCancelled(t *testing.T) {
	db := New()
	if err := db.WriteBatchContext(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := db.WriteBatchContext(ctx, []Point{{Measurement: "m", Fields: map[string]float64{"v": 1}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("cancelled batch applied %d points", points)
	}
}

// TestExecuteContextForms: the request-struct query API accepts both a
// statement and a pre-parsed query.
func TestExecuteContextForms(t *testing.T) {
	db := New()
	for i := 0; i < 4; i++ {
		if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	byStmt, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: `SELECT v FROM m`})
	if err != nil {
		t.Fatal(err)
	}
	byQuery, err := db.ExecuteContext(context.Background(), QueryRequest{Query: &Query{Fields: []string{"v"}, Measurement: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byStmt.Rows) != 4 || len(byQuery.Rows) != 4 {
		t.Fatalf("rows: stmt=%d query=%d, want 4 each", len(byStmt.Rows), len(byQuery.Rows))
	}
	if _, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: "not a query"}); err == nil {
		t.Fatal("malformed statement accepted")
	}
}

// TestDurableBatchGroupCommit: a batch on a durable DB is ONE WAL
// record; crash + reopen recovers every point of it exactly once.
func TestDurableBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]Point, 10)
	for i := range ps {
		ps[i] = Point{Measurement: fmt.Sprintf("m%d", i%3), Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	walPath := db.WALPath()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	// Group commit: the whole batch must be a single framed record.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := storage.DecodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("batch produced %d WAL records, want 1 (group commit)", len(recs))
	}
	if !storage.IsBatchBody(recs[0].Data) {
		t.Fatal("batch WAL record is not a batch envelope")
	}
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	points, _ := re.Stats()
	if points != uint64(len(ps)) {
		t.Fatalf("recovered %d points, want %d", points, len(ps))
	}
}

// TestDurableBatchTornRecoversWholeOrNone: a crash that tears the
// batch's WAL frame discards the WHOLE batch on recovery — never a
// prefix of it. (Atomicity under crash, the recovery half of the
// group-commit contract.)
func TestDurableBatchTornRecoversWholeOrNone(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-batch point that must survive.
	if err := db.WriteBatchContext(context.Background(), []Point{{Measurement: "keep", Fields: map[string]float64{"v": 1}, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	ps := make([]Point, 8)
	for i := range ps {
		ps[i] = Point{Measurement: "batch", Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	walPath := db.WALPath()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the batch record: zero the last bytes of its frame, as a crash
	// mid-append into the WAL's zero extent would have left them.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	clear(raw[len(walLog(t, walPath))-5:])
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatalf("reopen over torn batch: %v", err)
	}
	defer re.Close()
	if n, _ := re.CountValues("keep"); n != 1 {
		t.Fatalf("pre-batch point lost (%d values)", n)
	}
	if n, _ := re.CountValues("batch"); n != 0 {
		t.Fatalf("torn batch partially recovered: %d values (want whole-or-none = none)", n)
	}
}

// TestClientWriteBatchRoundTrip: the WRITEB frame end to end through
// the resilient client — points land once, queries see them.
func TestClientWriteBatchRoundTrip(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps := make([]Point, 20)
	for i := range ps {
		ps[i] = Point{Measurement: "wire", Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}
	}
	if err := c.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	if points, _ := db.Stats(); points != uint64(len(ps)) {
		t.Fatalf("server holds %d points, want %d", points, len(ps))
	}
	res, err := c.QueryContext(context.Background(), `SELECT v FROM wire`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ps) {
		t.Fatalf("query sees %d rows, want %d", len(res.Rows), len(ps))
	}
	// Client-side validation: an unencodable point never reaches the wire.
	bad := []Point{{Measurement: "wire", Fields: map[string]float64{"v": 1}}, {Measurement: ""}}
	var be *BatchError
	if err := c.WriteBatchContext(context.Background(), bad); !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want *BatchError{Index: 1}, got %v", err)
	}
}

// TestClientBatchTooLarge: a batch over MaxBatchPoints is refused before
// anything is sent — the server would answer such a header by hanging up
// with the body undrained — so the connection survives: the next op
// needs no reconnect.
func TestClientBatchTooLarge(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps := make([]Point, MaxBatchPoints+1)
	for i := range ps {
		ps[i] = Point{Measurement: "big", Fields: map[string]float64{"v": 1}, Time: int64(i)}
	}
	before := c.Stats()
	err = c.WriteBatchContext(context.Background(), ps)
	var be *BatchError
	if !errors.Is(err, ErrBatchTooLarge) || !errors.As(err, &be) || be.Index != MaxBatchPoints {
		t.Fatalf("over-limit batch: got %v, want *BatchError{Index: %d} wrapping ErrBatchTooLarge", err, MaxBatchPoints)
	}
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("ping after refused batch: %v", err)
	}
	if after := c.Stats(); after.Dials != before.Dials || after.Failures != before.Failures {
		t.Fatalf("refused batch cost the connection: stats %+v -> %+v", before, after)
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("refused batch applied %d points", points)
	}
	// The limit itself still ships.
	if err := c.WriteBatchContext(context.Background(), ps[:MaxBatchPoints]); err != nil {
		t.Fatalf("batch of exactly MaxBatchPoints: %v", err)
	}
}

// TestWriteVerbRetired: WRITEB is the wire's only write. A one-line
// WRITE frame is an unknown verb: it gets "ERR unknown command", stores
// nothing, and the stream stays in sync.
func TestWriteVerbRetired(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	fmt.Fprint(conn, "WRITE m,tag=t v=1 7\nPING\n")
	if resp, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(resp, "ERR unknown command") {
		t.Fatalf("WRITE frame: %q, %v; want ERR unknown command", resp, err)
	}
	if resp, err := r.ReadString('\n'); err != nil || strings.TrimSpace(resp) != "PONG" {
		t.Fatalf("ping after WRITE: %q, %v", resp, err)
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("a WRITE frame stored %d points", points)
	}
}

// TestWriteBatchDedupWindowEvicts: the server remembers the last
// dedupWindowSize applied tokens. A resend of the oldest is a dedup until
// that many newer batches have applied; after that it applies again.
func TestWriteBatchDedupWindowEvicts(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	write := func(token string, ts int) {
		t.Helper()
		fmt.Fprintf(conn, "WRITEB 1 id=%s\nm v=1 %d\n", token, ts)
		if resp, err := r.ReadString('\n'); err != nil || strings.TrimSpace(resp) != "OK 1" {
			t.Fatalf("token %s: %q, %v; want OK 1", token, resp, err)
		}
	}
	points := func() uint64 {
		n, _ := db.Stats()
		return n
	}
	write("first", 0)
	for i := 1; i < dedupWindowSize; i++ {
		write(fmt.Sprintf("tok-%d", i), i)
	}
	write("first", 0)
	if got := points(); got != dedupWindowSize {
		t.Fatalf("resend inside the window: store holds %d points, want %d", got, dedupWindowSize)
	}
	write("newest", dedupWindowSize)
	write("first", 0)
	if got := points(); got != dedupWindowSize+2 {
		t.Fatalf("resend after eviction: store holds %d points, want %d", got, dedupWindowSize+2)
	}
	srv.tokensDone.L.Lock()
	defer srv.tokensDone.L.Unlock()
	if n := len(srv.tokens); n != dedupWindowSize {
		t.Fatalf("token table holds %d tokens, want %d", n, dedupWindowSize)
	}
}

// TestWriteBatchFailedApplyNotDeduped: a tokened batch whose apply failed
// is not recorded, so its resend is applied afresh rather than
// acknowledged as a dedup — on a closed durable store it fails again.
func TestWriteBatchFailedApplyNotDeduped(t *testing.T) {
	db, err := Open(t.TempDir(), storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	frame := "WRITEB 1 id=tok-fail\nm v=1 1\n"
	for attempt := 0; attempt < 2; attempt++ {
		if got := <-sendFrame(t, addr, frame); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("attempt %d on a closed store: %q, want ERR", attempt, got)
		}
	}
}

// TestWriteBatchDedupOnRetry: re-sending a WRITEB frame with the same
// idempotency token (what a client retry after a lost ack does) is
// acknowledged without re-inserting — batch writes are exactly-once
// under retry.
func TestWriteBatchDedupOnRetry(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	frame := "WRITEB 2 id=test-tok-1\nm v=1 1\nm v=2 2\n"
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := conn.Write([]byte(frame)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if strings.TrimSpace(resp) != "OK 2" {
			t.Fatalf("attempt %d: got %q, want OK 2", attempt, resp)
		}
	}
	if points, _ := db.Stats(); points != 2 {
		t.Fatalf("server holds %d points after duplicate frame, want 2 (dedup)", points)
	}
	// A NEW token with the same body is a different logical batch.
	if _, err := conn.Write([]byte("WRITEB 2 id=test-tok-2\nm v=1 10\nm v=2 20\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(resp) != "OK 2" {
		t.Fatalf("new token: got %q", resp)
	}
	if points, _ := db.Stats(); points != 4 {
		t.Fatalf("server holds %d points, want 4", points)
	}
}

// sendFrame writes a frame on a fresh connection and returns where its
// one reply line (or the read error) arrives.
func sendFrame(t *testing.T, addr, frame string) <-chan string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(frame)); err != nil {
		t.Fatal(err)
	}
	reply := make(chan string, 1)
	go func() {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			resp = err.Error()
		}
		reply <- strings.TrimSpace(resp)
	}()
	return reply
}

// TestWriteBatchRetryRacingFirstAttempt: a retry sent on a fresh
// connection while its first attempt is still applying — stalled here
// behind the mutation barrier — waits for that apply and is acked as a
// dedup: the batch lands once, not twice.
func TestWriteBatchRetryRacingFirstAttempt(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	in := introspect.New()
	srv.SetTracing(in)
	const frame = "WRITEB 1 id=tok-1\nm v=1 1\n"
	db.mu.Lock()
	first, retry := sendFrame(t, addr, frame), sendFrame(t, addr, frame)
	// Release the apply once both frames are parsed — the step before
	// each decides between applying and acking a dedup.
	for parsed := 0; parsed < 2; time.Sleep(time.Millisecond) {
		parsed = 0
		for _, sp := range in.Tracer().Spans() {
			if sp.Name == "tsdb.server.parse" {
				parsed++
			}
		}
	}
	db.mu.Unlock()
	for _, reply := range []<-chan string{first, retry} {
		if got := <-reply; got != "OK 1" {
			t.Fatalf("reply %q, want OK 1", got)
		}
	}
	if total, _ := db.CountValues("m"); total != 1 {
		t.Fatalf("the batch landed %d times, want once", total)
	}
}

// TestWriteBatchPendingTokenHoldsOnlyItsRetries: while a token's apply
// is under way, a frame with another token is served at once and the
// token's own retry waits; when the first apply fails, the retry applies
// the batch itself.
func TestWriteBatchPendingTokenHoldsOnlyItsRetries(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	if srv.claimToken("tok-1") {
		t.Fatal("a fresh token claimed as applied")
	}
	retry := sendFrame(t, addr, "WRITEB 1 id=tok-1\nm v=1 1\n")
	if got := <-sendFrame(t, addr, "WRITEB 1 id=tok-2\nm v=2 2\n"); got != "OK 1" {
		t.Fatalf("another token's frame: %q, want OK 1", got)
	}
	select {
	case got := <-retry:
		t.Fatalf("the retry of a pending token answered %q before its apply ended", got)
	case <-time.After(50 * time.Millisecond):
	}
	srv.releaseToken("tok-1", false)
	if got := <-retry; got != "OK 1" {
		t.Fatalf("the retry after a failed apply: %q, want OK 1", got)
	}
	if total, _ := db.CountValues("m"); total != 2 {
		t.Fatalf("store holds %d values, want both batches once", total)
	}
}

// TestWriteBatchStreamSync: a valid header with a rejected body line
// drains the whole body and leaves the stream in sync (next command
// answers normally); an invalid header is fatal and closes the
// connection, because the server cannot know how many lines follow.
func TestWriteBatchStreamSync(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// Valid header, one malformed body line: ERR, but the stream stays
	// usable — the next PING on the same connection answers.
	if _, err := conn.Write([]byte("WRITEB 2\nm v=1 1\nnot a valid line\nPING\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("malformed body line: got %q, want ERR", resp)
	}
	resp, err = r.ReadString('\n')
	if err != nil {
		t.Fatalf("stream desynced after rejected batch: %v", err)
	}
	if strings.TrimSpace(resp) != "PONG" {
		t.Fatalf("post-rejection ping: got %q, want PONG", resp)
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("rejected batch applied %d points", points)
	}

	// Invalid header (unparseable count): ERR, then the server hangs up.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	r2 := bufio.NewReader(conn2)
	if _, err := conn2.Write([]byte("WRITEB nonsense\n")); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err = r2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad header: got %q, want ERR", resp)
	}
	if _, err := r2.ReadString('\n'); err == nil {
		t.Fatal("connection survived a fatal batch header (desync risk)")
	}

	// Over-limit n is equally fatal: the server refuses to drain it.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	r3 := bufio.NewReader(conn3)
	fmt.Fprintf(conn3, "WRITEB %d\n", MaxBatchPoints+1)
	conn3.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err = r3.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("over-limit header: got %q, want ERR", resp)
	}
	if _, err := r3.ReadString('\n'); err == nil {
		t.Fatal("connection survived an over-limit batch header")
	}
}
