package tsdb

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmove/internal/storage"
)

// fuzzBatchSeq keeps fuzz-minted idempotency tokens unique across
// executions, so dedup only ever collapses the deliberate resend.
var fuzzBatchSeq atomic.Uint64

var batchAckRE = regexp.MustCompile(`^(OK [0-9]+|ERR .*)$`)

// FuzzBatchFrame drives the WRITEB wire contract with arbitrary body
// lines over real TCP: a valid-by-construction header (n == number of
// body lines actually sent) must yield EXACTLY one well-formed ack per
// frame — whatever the body lines contain, valid line protocol or
// binary junk — an identical resend must yield the identical ack (the
// retry path, with and without an idempotency token), and the stream
// must stay in sync (a PING on the same connection still pongs).
// Desync, double-acks, hangs, and panics all fail here before a
// resilient client ever sees them. The server fronts a durable store,
// and what an accepted frame left in its WAL — lines taken verbatim and
// lines encoded again alike — must reopen as the store DecodeLine of the
// same lines builds.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte("m v=1 1"), byte(0))
	f.Add([]byte("m v=1 1\nm v=2 2"), byte(1))
	f.Add([]byte("not line protocol\nm v=3 3"), byte(2))
	f.Add([]byte(""), byte(3))
	f.Add([]byte("m,tag=a v=1,w=2 9\nm v=nan 1"), byte(1))
	f.Add([]byte("\x00\xff\xfe"), byte(2))
	f.Add([]byte("PING\nQUERY SELECT v FROM m\nWRITEB 1"), byte(3))
	f.Add([]byte("m,z=1,a=2 d=4,c=3,b=2,a=1 7\nm,a=2,z=1 a=1,b=2,c=3,d=4 7"), byte(0)) // descending keys, a duplicate timestamp
	f.Add([]byte("m v=1.0,w=1e0,x=+5,y=-0 +5\nm v=1,w=1,x=5,y=0 05\nm v=1 -0"), byte(2))
	f.Add([]byte(`m\ s\,c\=e\\b,k\ \,\=\\=v\ \,\=\\ f\ \,\==1,plain=2 9`+"\nm=x v=1 9"), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		lines := strings.Split(string(data), "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		for i := range lines {
			// One wire line per body line; CRs would confuse nothing but
			// keep the frame printable for repro output.
			lines[i] = strings.ReplaceAll(lines[i], "\r", " ")
			if len(lines[i]) > 4<<10 {
				lines[i] = lines[i][:4<<10]
			}
		}
		header := fmt.Sprintf("WRITEB %d", len(lines))
		if mode&1 != 0 {
			header += fmt.Sprintf(" id=fz-%x", fuzzBatchSeq.Add(1))
		}
		var frame strings.Builder
		frame.WriteString(header)
		frame.WriteByte('\n')
		for _, l := range lines {
			frame.WriteString(l)
			frame.WriteByte('\n')
		}

		dir := t.TempDir()
		db, err := Open(dir, storage.FsyncNever)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, addr := startServer(t, db)
		defer srv.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		// Close with a reset: a long fuzz run must not park every
		// execution's port in TIME_WAIT until none is left to dial from.
		conn.(*net.TCPConn).SetLinger(0)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(conn)

		readAck := func(what string) string {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%s for frame %q got no ack: %v", what, frame.String(), err)
			}
			ack := strings.TrimSuffix(line, "\n")
			if !batchAckRE.MatchString(ack) {
				t.Fatalf("%s for frame %q got malformed ack %q", what, frame.String(), ack)
			}
			return ack
		}

		if _, err := conn.Write([]byte(frame.String())); err != nil {
			t.Fatalf("write frame: %v", err)
		}
		first := readAck("send")
		applied := 1

		// Identical resend — the shape of a client retry after a lost
		// ack. Tokenless frames re-process (same deterministic verdict);
		// tokened OK frames hit the dedup window. Either way the ack
		// must be byte-identical.
		if mode&2 != 0 {
			if _, err := conn.Write([]byte(frame.String())); err != nil {
				t.Fatalf("resend frame: %v", err)
			}
			if second := readAck("resend"); second != first {
				t.Fatalf("resend of %q acked %q, first attempt acked %q", frame.String(), second, first)
			}
			if mode&1 == 0 {
				applied = 2 // no token: the resend is a second write
			}
		}

		// The stream must still be in sync after any batch verdict.
		if _, err := conn.Write([]byte("PING\n")); err != nil {
			t.Fatalf("write ping: %v", err)
		}
		pong, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("ping after frame %q got no response: %v", frame.String(), err)
		}
		if strings.TrimSpace(pong) != "PONG" {
			t.Fatalf("stream desynced after frame %q: ping answered %q", frame.String(), pong)
		}

		// The WAL of an accepted frame replays to what the lines decode to.
		want := New()
		if strings.HasPrefix(first, "OK") {
			ps := make([]Point, len(lines))
			for i, l := range lines {
				if ps[i], err = DecodeLine(l); err != nil {
					t.Fatalf("frame %q was accepted, but DecodeLine(%q): %v", frame.String(), l, err)
				}
			}
			for ; applied > 0; applied-- {
				if err := want.WriteBatchContext(context.Background(), ps); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Open(dir, storage.FsyncNever)
		if err != nil {
			t.Fatalf("reopen after frame %q: %v", frame.String(), err)
		}
		defer got.Close()
		gp, gv := got.Stats()
		if wp, wv := want.Stats(); gp != wp || gv != wv {
			t.Fatalf("frame %q reopens as %d rows, %d values; its lines decode to %d, %d", frame.String(), gp, gv, wp, wv)
		}
		for _, m := range want.Measurements() {
			req := QueryRequest{Query: &Query{Measurement: m, Fields: []string{"*"}}}
			g, gerr := got.ExecuteContext(context.Background(), req)
			w, werr := want.ExecuteContext(context.Background(), req)
			if gerr != nil || werr != nil || fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("frame %q, SELECT * FROM %q: reopened store\n%v (%v)\nits lines decode to\n%v (%v)", frame.String(), m, g, gerr, w, werr)
			}
		}
	})
}
