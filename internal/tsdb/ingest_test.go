package tsdb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/storage"
)

// The row path from a received frame to the WAL and the head: which
// lines go into a WAL body as they came, what the ingest counters say,
// and what a warm frame allocates.

// TestScanRowCanonicalForm: a line is taken verbatim exactly when it is
// what the encoder prints for its point, up to the spelling of a number;
// any other accepted line is printed again from its row, and that is the
// encoder's line.
func TestScanRowCanonicalForm(t *testing.T) {
	for _, c := range []struct {
		line     string
		verbatim bool
	}{
		{"m v=1 5", true},
		{"m,a=x,b=y f=1,g=2 -5", true},
		{"m v=1.0 5", true}, // number spelling is not part of the form
		{"m v=1e0,w=+5 0", true},
		{"m v=1 +5", false},
		{"m v=1 05", false},
		{"m v=1 -0", false},
		{"m g=2,f=1 5", false},
		{"m,b=y,a=x f=1 5", false},
		{`m\ s v=1 5`, false},
		{`m,a=x\,y v=1 5`, false},
		{`m a\=b=1 5`, false},
		{"m=x v=1 5", false}, // the encoder escapes the '='
	} {
		rb := new(rowBuf)
		if err := rb.scan(c.line); err != nil {
			t.Fatalf("scan(%q): %v", c.line, err)
		}
		r := &rb.rows[0]
		if got := r.line != ""; got != c.verbatim {
			t.Errorf("scan(%q): verbatim = %v, want %v", c.line, got, c.verbatim)
		}
		p, err := DecodeLine(c.line)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := EncodeLine(p)
		if c.verbatim {
			if back, err := DecodeLine(string(appendRow(nil, r))); err != nil || !pointsEqual(back, p) {
				t.Errorf("%q taken verbatim reads back as %+v (%v), want %+v", c.line, back, err, p)
			}
		} else if got := string(appendRow(nil, r)); got != want {
			t.Errorf("scan(%q) encodes as %q, the encoder prints %q", c.line, got, want)
		}
	}
	// A rejected line leaves the rows before it alone.
	rb := new(rowBuf)
	for _, line := range []string{"a,k=v f=1,g=2 1", "b,k=v f=1,f=2 2", "c,k=w h=3 3"} {
		rb.scan(line)
	}
	if len(rb.rows) != 2 || len(rb.kvs) != 5 || rb.rows[1].meas != "c" || rb.rows[1].fields[0].key != "h" {
		t.Fatalf("rows after a rejected line: %+v", rb.rows)
	}
}

// TestClientRefusesLineBreak: a newline in a name would put n+1 lines
// under a header that says n — the server would read the tail as a
// command and every later reply on the connection would be one behind.
// The client refuses the point before anything touches the wire.
func TestClientRefusesLineBreak(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	good := Point{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: 1}
	for name, bad := range map[string]Point{
		"tag value":   {Measurement: "m", Tags: map[string]string{"k": "x\nWRITE m v=9 9"}, Fields: map[string]float64{"v": 2}, Time: 2},
		"measurement": {Measurement: "m\nPING", Fields: map[string]float64{"v": 2}, Time: 2},
		"field key":   {Measurement: "m", Fields: map[string]float64{"a\nb": 2}, Time: 2},
	} {
		err := c.WriteBatchContext(ctx, []Point{good, bad})
		var be *BatchError
		if !errors.Is(err, ErrLineBreak) || !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("newline in a %s: got %v, want *BatchError{Index: 1} wrapping ErrLineBreak", name, err)
		}
		if err := c.PingContext(ctx); err != nil {
			t.Fatalf("ping after the refused batch (%s): %v", name, err)
		}
		if _, err := c.QueryContext(ctx, `SELECT "v" FROM "m"`); err != nil {
			t.Fatalf("query after the refused batch (%s): %v", name, err)
		}
	}
	if points, _ := db.Stats(); points != 0 {
		t.Fatalf("refused batches applied %d points", points)
	}
	// The embedded store, the WAL and replay hold such a name: they frame
	// by length.
	dir := t.TempDir()
	ddb, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	nl := Point{Measurement: "m", Tags: map[string]string{"k": "x\ny"}, Fields: map[string]float64{"v": 2}, Time: 2}
	if err := ddb.WriteBatchContext(ctx, []Point{good, nl}); err != nil {
		t.Fatal(err)
	}
	ddb.Close()
	if ddb, err = Open(dir, storage.FsyncAlways); err != nil {
		t.Fatalf("reopen a store holding a newline in a name: %v", err)
	}
	defer ddb.Close()
	if points, _ := ddb.Stats(); points != 2 {
		t.Fatalf("reopened store has %d points, want 2", points)
	}
}

// TestClientMultiLineSelect: the wire frames by lines too for QUERY, so a
// multi-line SELECT goes out in its one-line canonical form — it gets the
// embedded answer and the ops after it on the same connection stay in
// step; a statement that does not parse fails before anything is sent.
func TestClientMultiLineSelect(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := int64(1); i <= 3; i++ {
		if err := db.WriteBatchContext(ctx, []Point{{Measurement: "m", Fields: map[string]float64{"v": float64(i)}, Time: i}}); err != nil {
			t.Fatal(err)
		}
	}
	stmt := "SELECT mean(v)\nFROM m"
	want, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.QueryContext(ctx, stmt); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-line SELECT over the wire: %+v, %v; embedded: %+v", got, err, want)
	}
	if err := c.WriteBatchContext(ctx, []Point{{Measurement: "m", Fields: map[string]float64{"v": 4}, Time: 4}}); err != nil {
		t.Fatalf("write after the multi-line SELECT: %v", err)
	}
	got, err := c.QueryContext(ctx, "SELECT count(v)\n\tFROM m\n")
	if err != nil || len(got.Rows) != 1 || got.Rows[0].Values["count(v)"] != 4 {
		t.Fatalf("query after the write: %+v, %v; want a count of 4", got, err)
	}
	if err := c.PingContext(ctx); err != nil {
		t.Fatalf("ping after the queries: %v", err)
	}
	if _, err := c.QueryContext(ctx, "SELECT\nFROM m"); err == nil || strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unparsable statement: %v, want the parse error from the client", err)
	}
	if err := c.PingContext(ctx); err != nil {
		t.Fatalf("ping after the refused statement: %v", err)
	}
}

// TestIngestRowCounters: every row of an accepted frame is counted once,
// as taken verbatim or as encoded again; a frame from Client is all
// verbatim, an embedded write is not a frame.
func TestIngestRowCounters(t *testing.T) {
	db, err := Open(t.TempDir(), storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	in := introspect.New()
	db.SetIntrospection(in)
	counts := func() (verbatim, reencoded uint64) {
		reg := in.Metrics()
		return reg.Counter("ingest.rows_verbatim").Load(), reg.Counter("ingest.rows_reencoded").Load()
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var sent uint64
	for _, batch := range fixtureBatches()[:3] {
		if err := c.WriteBatchContext(ctx, batch); err != nil {
			t.Fatal(err)
		}
		sent += uint64(len(batch))
	}
	if v, r := counts(); v != sent || r != 0 {
		t.Fatalf("after %d rows from Client: %d verbatim, %d re-encoded; want all verbatim", sent, v, r)
	}
	if err := db.WriteBatchContext(ctx, fixtureBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if v, r := counts(); v != sent || r != 0 {
		t.Fatalf("an embedded write moved the frame counters to %d, %d", v, r)
	}
	// A foreign client: three of four accepted rows out of form; a rejected
	// frame counts nothing.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	fmt.Fprint(conn, "WRITEB 3\nm b=2,a=1 1\nm a=1,b=2 2\nm\\ x a=1 +3\nWRITEB 2\nm a=1 4\nm a=nan 5\nWRITEB 1\nm b=1,a=2 6\n")
	for _, want := range []string{"OK 3", "ERR", "OK 1"} {
		if ack, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(ack, want) {
			t.Fatalf("ack %q (%v), want %s", ack, err, want)
		}
	}
	if v, r := counts(); v != sent+1 || r != 3 {
		t.Fatalf("after the foreign frames: %d verbatim, %d re-encoded; want %d, 3", v, r, sent+1)
	}
}

// frameOf renders rows×fields canonical lines under a WRITEB header, as
// Client would send them.
func frameOf(rows, fields int) (frame []byte, lines []string) {
	for r := 0; r < rows; r++ {
		p := codecRow(fields)
		p.Time += int64(r)
		line, _ := EncodeLine(p)
		lines = append(lines, line)
	}
	return []byte(fmt.Sprintf("WRITEB %d\n%s\n", rows, strings.Join(lines, "\n"))), lines
}

// retimeLines spells the times of buf's rows — a frameOf frame, or a WAL
// record of its lines — as *next, *next+1, ... in place, and moves *next
// past them, as pmovebench's shiftTick moves a captured tick on: what
// follows lands after them. The times keep codecRow's 19 digits, of
// which they share the first 10.
func retimeLines(buf []byte, next *int64) {
	for i := bytes.Index(buf, codecTime[:10]); i >= 0; i = bytes.Index(buf, codecTime[:10]) {
		strconv.AppendInt(buf[i:i], *next, 10)
		*next++
		buf = buf[i+len(codecTime):]
	}
}

// codecTime is codecRow's time as a row spells it.
var codecTime = []byte(strconv.FormatInt(codecRow(0).Time, 10))

// TestServerBatchAllocations: what a warm connection allocates for a
// canonical frame — its header line, the body being a pooled buffer, the
// ack appended into the writer and the written measurements and WAL
// frame scratch — does not
// depend on how many fields a row has, and neither does a warm replay of
// the record: no object per field anywhere between the socket and the
// head. Each count is pinned twice: for frames and records whose times
// advance on each send, as a live tick's do, whose rows all land in the
// open block; and for one frame sent again and again, whose rows but the
// last are older than the head's and leave the head unsorted.
func TestServerBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	for _, c := range []struct {
		name          string
		advance       bool
		frame, record float64 // the pins: objects per frame, per replayed record
	}{
		{"in order", true, 1, 6},
		{"late", false, 1, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			perFrame := map[int]float64{}
			perReplay := map[int]float64{}
			for _, fields := range []int{8, 88} {
				next := codecRow(0).Time
				db, err := Open(t.TempDir(), storage.FsyncNever)
				if err != nil {
					t.Fatal(err)
				}
				srv, addr := startServer(t, db)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				conn.SetDeadline(time.Now().Add(30 * time.Second))
				frame, lines := frameOf(5, fields)
				ack := make([]byte, 16)
				send := func() {
					if c.advance {
						retimeLines(frame, &next)
					}
					if _, err := conn.Write(frame); err != nil {
						t.Fatal(err)
					}
					if n, err := conn.Read(ack); err != nil || string(ack[:n]) != "OK 5\n" {
						t.Fatalf("ack %q, %v", ack[:n], err)
					}
				}
				// Warm: past the first seal the head columns keep a block's
				// capacity, and the measured frames stay short of the next.
				for i := 0; i < blockRows/5+1; i++ {
					send()
				}
				perFrame[fields] = testing.AllocsPerRun(100, send)
				conn.Close()
				srv.Close()
				checkUnsorted(t, db, !c.advance)
				db.Close()

				bodies := make([][]byte, len(lines))
				for i, l := range lines {
					bodies[i] = []byte(l)
				}
				// Replay warms on a log's first record: what each further one
				// costs is a 51-record log's count less a 1-record log's.
				var log51 storage.Recovered
				for i := 0; i < 51; i++ {
					log51.Records = append(log51.Records, storage.Record{Seq: uint64(i + 1), Data: storage.EncodeBatchBody(bodies)})
				}
				// log1's record is its own, so retiming it leaves log51's.
				log1 := storage.Recovered{Records: []storage.Record{{Seq: 1, Data: storage.EncodeBatchBody(bodies)}}}
				mem := New()
				next = codecRow(0).Time
				replay := func(log storage.Recovered) func() {
					return func() {
						for _, r := range log.Records {
							if c.advance {
								retimeLines(r.Data, &next)
							}
						}
						if err := mem.replay(log); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < blockRows/(5*51)+1; i++ {
					replay(log51)()
				}
				perReplay[fields] = (testing.AllocsPerRun(5, replay(log51)) - testing.AllocsPerRun(5, replay(log1))) / 50
				checkUnsorted(t, mem, !c.advance)
			}
			t.Logf("objects per 5-row frame: %v, per replayed record: %v", perFrame, perReplay)
			if perFrame[8] != perFrame[88] || perFrame[8] > c.frame {
				t.Errorf("a 5-row frame allocates %v objects at 8 fields a row and %v at 88; want the same %v or fewer", perFrame[8], perFrame[88], c.frame)
			}
			if perReplay[8] != perReplay[88] || perReplay[8] > c.record {
				t.Errorf("replaying a 5-row record allocates %v objects at 8 fields a row and %v at 88; want the same %v or fewer", perReplay[8], perReplay[88], c.record)
			}
		})
	}
}

// checkUnsorted asserts whether the one series of frameOf's rows in db
// has late rows in its head.
func checkUnsorted(t *testing.T, db *DB, want bool) {
	t.Helper()
	db.data.RLock()
	defer db.data.RUnlock()
	s := db.measurements[codecRow(0).Measurement].series[0]
	if got := s.open.unsorted; got != want {
		t.Fatalf("head of %d rows unsorted %v; want %v", s.open.rows, got, want)
	}
}

// TestServerQueryAllocations: what a warm connection allocates to answer
// a cached aggregate shaped like a live_monitor panel refresh — count and
// mean over 16 windows, a reply of more than a kilobyte — is a fixed few
// objects: the reply is encoded into the connection's writer, not into a
// buffer of its own, parsing time(16s) makes no strconv error, and the
// cache key is rendered into one buffer, not through fmt.
func TestServerQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	db := New()
	ps := make([]Point, 256)
	for i := range ps {
		ps[i] = Point{Measurement: "m", Tags: map[string]string{"host": "a"},
			Fields: map[string]float64{"v": float64(i) / 3}, Time: int64(i+1) * int64(time.Second)}
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	stmt := []byte(`QUERY SELECT count("v"), mean("v") FROM "m" GROUP BY time(16s)` + "\n")
	r := bufio.NewReaderSize(conn, 64<<10)
	var reply []byte
	send := func() {
		if _, err := conn.Write(stmt); err != nil {
			t.Fatal(err)
		}
		if reply, err = r.ReadSlice('\n'); err != nil || bytes.HasPrefix(reply, []byte("ERR")) {
			t.Fatalf("reply %q, %v", reply, err)
		}
	}
	send() // the first answer fills the cache
	n := testing.AllocsPerRun(100, send)
	t.Logf("objects per %d-byte reply: %v", len(reply), n)
	if len(reply) < 1024 {
		t.Fatalf("reply of %d bytes, want a panel refresh's kilobyte or more", len(reply))
	}
	if n > 16 {
		t.Errorf("a cached aggregate's reply allocates %v objects; want at most 16", n)
	}
}

// TestServerLargeReplyAllocations: a warm reply larger than the server's
// 4 KiB writer is encoded into a pooled frame, so it allocates far less
// than its own size (a slice grown from the writer's free space on every
// QUERY allocated 181 KB for this 179 KB reply).
func TestServerLargeReplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	db := New()
	ps := make([]Point, 2560)
	for i := range ps {
		ps[i] = Point{Measurement: "m", Tags: map[string]string{"host": "a"},
			Fields: map[string]float64{"v": float64(i) / 3}, Time: int64(i+1) * int64(time.Second)}
	}
	if err := db.WriteBatchContext(context.Background(), ps); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	stmt := []byte(`QUERY SELECT count("v"), mean("v") FROM "m" GROUP BY time(1s)` + "\n")
	r := bufio.NewReaderSize(conn, 1<<20)
	var reply []byte
	send := func() {
		if _, err := conn.Write(stmt); err != nil {
			t.Fatal(err)
		}
		if reply, err = r.ReadSlice('\n'); err != nil || bytes.HasPrefix(reply, []byte("ERR")) {
			t.Fatalf("reply %.80q, %v", reply, err)
		}
	}
	// The first answer fills the cache; the warm-up grows a pooled frame
	// on whichever Ps the server's goroutine runs.
	for i := 0; i < 4; i++ {
		send()
	}
	const replies = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replies; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	perReply := (after.TotalAlloc - before.TotalAlloc) / replies
	t.Logf("%d B allocated per %d-byte reply", perReply, len(reply))
	if len(reply) < 100<<10 {
		t.Fatalf("reply of %d bytes, want over 100 KB", len(reply))
	}
	if perReply >= 4<<10 {
		t.Errorf("a warm %d-byte reply allocates %d B; want under 4 KB", len(reply), perReply)
	}
}

func BenchmarkScanRow(b *testing.B) {
	for _, n := range []int{8, 88} {
		line, _ := EncodeLine(codecRow(n))
		b.Run(fmt.Sprintf("f%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rb := new(rowBuf)
			for i := 0; i < b.N; i++ {
				rb.rows, rb.kvs = rb.rows[:0], rb.kvs[:0]
				if err := rb.scan(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerWriteBatch is one monitoring tick (5 rows × 88 fields)
// over a loopback connection into an in-memory and a durable store.
func BenchmarkServerWriteBatch(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "mem"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			db := New()
			if durable {
				dir, err := os.MkdirTemp("", "tsdb-bench")
				if err != nil {
					b.Fatal(err)
				}
				defer os.RemoveAll(dir)
				if db, err = Open(dir, storage.FsyncNever); err != nil {
					b.Fatal(err)
				}
				defer db.Close()
			}
			srv := NewServer(db)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			// The tick's lines less their timestamps: time moves on frame
			// by frame, as a monitor's does.
			_, lines := frameOf(5, 88)
			for i, l := range lines {
				lines[i] = l[:strings.LastIndexByte(l, ' ')+1]
			}
			var frame []byte
			ack := make([]byte, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame = append(frame[:0], "WRITEB 5\n"...)
				for _, l := range lines {
					frame = append(strconv.AppendInt(append(frame, l...), int64(i), 10), '\n')
				}
				if _, err := conn.Write(frame); err != nil {
					b.Fatal(err)
				}
				if n, err := conn.Read(ack); err != nil || string(ack[:n]) != "OK 5\n" {
					b.Fatalf("ack %q, %v", ack[:n], err)
				}
			}
		})
	}
}

// clientTick is one monitoring tick: 5 rows × 88 fields of integer
// counter values, as a PMU agent samples them.
func clientTick() []Point {
	ps := make([]Point, 5)
	for i := range ps {
		ps[i] = codecRow(88)
		ps[i].Measurement += strconv.Itoa(i)
		for f := range ps[i].Fields {
			ps[i].Fields[f] = float64(len(f)*1_000_003 + i)
		}
	}
	return ps
}

// BenchmarkClientWriteBatch is one monitoring tick (clientTick) from a
// Client over a loopback connection into an in-memory store: both ends
// of the wire.
func BenchmarkClientWriteBatch(b *testing.B) {
	srv, addr := startServer(b, New())
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ps := clientTick()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		retime(ps, n)
		if err := cl.WriteBatchContext(ctx, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameNamesOutliveTheirBuffer: a WRITEB body is scanned in place
// from a pooled buffer that a later frame overwrites, so every name the
// store keeps must be a copy. The first frame brings a new measurement,
// tag and field; the frames after it, of the same length in other bytes,
// land in its buffer; the store still reads the first frame's names.
func TestFrameNamesOutliveTheirBuffer(t *testing.T) {
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
	// Later frames take the first one's buffer unless the server's
	// goroutine has moved to another P's pool since; 16 leave no chance.
	const frames = 16
	var want []string
	for i := 0; i < frames; i++ {
		fmt.Fprintf(conn, "WRITEB 1\nm%02d,k%02d=v%02d f%02d=%02d 10%02d\n", i, i, i, i, i, i)
		if ack, err := r.ReadString('\n'); err != nil || ack != "OK 1\n" {
			t.Fatalf("frame %d: ack %q, %v", i, ack, err)
		}
		want = append(want, fmt.Sprintf("m%02d", i))
	}
	if got := db.Measurements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("measurements %q, want %q", got, want)
	}
	for i, meas := range want {
		db.data.RLock()
		var tags []map[string]string
		for _, s := range db.measurements[meas].series {
			tags = append(tags, s.tags)
		}
		db.data.RUnlock()
		if wantTags := []map[string]string{{fmt.Sprintf("k%02d", i): fmt.Sprintf("v%02d", i)}}; !reflect.DeepEqual(tags, wantTags) {
			t.Errorf("%s: series tags %q, want %q", meas, tags, wantTags)
		}
		res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: `SELECT * FROM "` + meas + `"`})
		if err != nil {
			t.Fatal(err)
		}
		field := fmt.Sprintf("f%02d", i)
		if !reflect.DeepEqual(res.Columns, []string{field}) || len(res.Rows) != 1 || res.Rows[0].Values[field] != float64(i) {
			t.Errorf("%s: columns %q, rows %v; want [%s] and one row of %d", meas, res.Columns, res.Rows, field, i)
		}
	}
}

// TestConcurrentFrameBuffers: frame buffers pass between goroutines at
// both ends of the wire through one pool. Four writers — two sharing one
// Client, two on connections of their own — send batches that each name
// a new series into one Server; every batch is queryable exactly once.
// Run under -race by ci.sh.
func TestConcurrentFrameBuffers(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const writers, batches, rows = 4, 40, 3
	batch := func(w, b int) []Point {
		ps := make([]Point, rows)
		for r := range ps {
			v := b*rows + r
			ps[r] = Point{Measurement: fmt.Sprintf("w%d", w), Tags: map[string]string{"batch": fmt.Sprintf("b%03d", b)},
				Fields: map[string]float64{fmt.Sprintf("f%d", r): float64(v)}, Time: int64(v + 1)}
		}
		return ps
	}
	write := func(w int) error {
		if w < 2 {
			for b := 0; b < batches; b++ {
				if err := cl.WriteBatchContext(context.Background(), batch(w, b)); err != nil {
					return err
				}
			}
			return nil
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		r := bufio.NewReader(conn)
		for b := 0; b < batches; b++ {
			frame := fmt.Appendf(nil, "WRITEB %d\n", rows)
			for _, p := range batch(w, b) {
				if frame, err = AppendLine(frame, &p); err != nil {
					return err
				}
				frame = append(frame, '\n')
			}
			if _, err := conn.Write(frame); err != nil {
				return err
			}
			if ack, err := r.ReadString('\n'); err != nil || ack != fmt.Sprintf("OK %d\n", rows) {
				return fmt.Errorf("writer %d batch %d: ack %q, %v", w, b, ack, err)
			}
		}
		return nil
	}
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() { errs <- write(w) }()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		meas := fmt.Sprintf("w%d", w)
		got := rawRows(t, db, meas)
		if len(got) != batches*rows {
			t.Fatalf("%s: %d rows, want %d", meas, len(got), batches*rows)
		}
		for i, row := range got {
			field := fmt.Sprintf("f%d", i%rows)
			if row.Time != int64(i+1) || !reflect.DeepEqual(row.Values, map[string]float64{field: float64(i)}) {
				t.Fatalf("%s: row %d is %d %v, want %d {%s:%d}", meas, i, row.Time, row.Values, i+1, field, i)
			}
		}
		db.data.RLock()
		series := len(db.measurements[meas].series)
		db.data.RUnlock()
		if series != batches {
			t.Fatalf("%s: %d series, want one per batch, %d", meas, series, batches)
		}
	}
}
