package tsdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// MaxBatchPoints bounds one WRITEB frame. The bound keeps a malicious
// or corrupted header from committing the server to drain an unbounded
// body; the server rejects an over-limit header fatally (connection
// closed) because it will not read the body, so the client refuses such
// a batch with ErrBatchTooLarge before sending anything.
const MaxBatchPoints = 4096

// ErrBatchTooLarge is the cause inside the *BatchError a client write
// of more than MaxBatchPoints points returns.
var ErrBatchTooLarge = errors.New("tsdb: batch too large")

// ErrLineBreak is the cause inside the *BatchError a client write
// returns for a point with a newline in a name — the wire frames by lines,
// so it would arrive as two; the WAL and the spill journal frame by length
// and hold such a name — and what QueryContext wraps for a statement alike.
var ErrLineBreak = errors.New("tsdb: line break in a name")

// dedupWindowSize is how many applied batch tokens the server
// remembers for retry dedup. Retries are near in time by construction,
// so a token older than this many later applied batches is no longer
// retryable by any live client.
const dedupWindowSize = 1024

// Server exposes a DB over TCP with a line-oriented protocol:
//
//	WRITEB <n> [id=<tok>]     -> (after n body lines) "OK <n>" | "ERR <msg>"
//	QUERY <select statement>  -> one JSON document with the Result | "ERR"
//	PING                      -> "PONG"
//
// WRITEB is the batched write frame: the header line announces n, the
// next n lines are one point of line protocol each, and the server
// answers with ONE ack for the whole batch — a monitoring tick costs
// one round-trip instead of |instance domain|. An optional id= token
// makes the batch exactly-once under client retry. The header's bounds
// are load-bearing for stream sync: a header with a valid n (1..
// MaxBatchPoints) ALWAYS consumes exactly n body lines before the ack,
// even when a body line is rejected; an invalid header gets an ERR and
// the connection is closed, because the server cannot know how many
// lines the client will send next. Like QUERY, the header may carry a
// leading traceparent= token. Any other verb gets "ERR unknown command"
// and leaves the stream in sync. A line over maxLine gets "ERR line too
// long" and the connection is closed.
//
// The host runs one of these for the target's telemetry shippers (Figure
// 3: "the host runs ... InfluxDB").
type Server struct {
	db *DB

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	in     *introspect.Introspector
	log    *logbuf.Logger
	slow   time.Duration

	// tokens is the batch-token table: false while the token's apply is
	// under way, true once it has applied. A retry racing its own first
	// attempt on another connection waits on tokensDone for that apply to
	// end — then is acked as a dedup, or applies itself if the first
	// failed — instead of applying twice. ring holds the applied tokens
	// oldest first from next; at dedupWindowSize the oldest is evicted.
	// All of it is guarded by tokensDone.L.
	tokens     map[string]bool
	ring       []string
	next       int
	tokensDone *sync.Cond
}

// maxLine caps a request or body line: a longer one ends the session.
const maxLine = 8 << 20

// NewServer wraps a DB; the server is not yet listening.
func NewServer(db *DB) *Server {
	return &Server{
		db:         db,
		conns:      map[net.Conn]struct{}{},
		tokens:     make(map[string]bool, dedupWindowSize),
		ring:       make([]string, dedupWindowSize),
		tokensDone: sync.NewCond(&sync.Mutex{}),
	}
}

// SetTracing attaches the introspector whose tracer records server-side
// spans (tsdb.server.writeb with queue/parse/insert children, ...): a
// request carrying a traceparent joins the caller's distributed trace,
// an untagged one opens a local root. Nil (the default) disables server
// tracing.
func (s *Server) SetTracing(in *introspect.Introspector) {
	s.mu.Lock()
	s.in = in
	s.mu.Unlock()
	// The served DB's query-cache counters belong to the same
	// self-observability plane (pmove.self.query.cache.*).
	s.db.SetIntrospection(in)
}

// SetLogger attaches a structured log ring (conventionally a
// "tsdb.server" component child). Ops slower than slowThreshold emit a
// warn record carrying the op's wire traceparent, so a slow server-side
// op joins the client span that carried it on the same 128-bit trace
// id; a zero threshold logs every op, a negative one disables the
// slow-op path (failed ops are still logged). A nil logger disables
// everything. A live connection reads the settings once per request.
func (s *Server) SetLogger(lg *logbuf.Logger, slowThreshold time.Duration) {
	s.mu.Lock()
	s.log = lg
	s.slow = slowThreshold
	s.mu.Unlock()
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("tsdb: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting on ln, which Close will close, and returns.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if s.track(nc) {
				go s.handle(nc)
			}
		}
	}()
}

// track registers an accepted connection and its handler — unless Close
// has begun. Accept can hand over a connection after Close swept the
// set; served, it would never be closed and its handler would hold Close
// until the peer left, so it is closed instead.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return false
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	return true
}

// handle runs one connection's session: a request line at a time, each
// reply flushed before the next line is read.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	c := &conn{sc: bufio.NewScanner(nc), w: bufio.NewWriter(nc)}
	c.sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for c.sc.Scan() {
		s.mu.Lock()
		c.in, c.log, c.slow = s.in, s.log, s.slow
		s.mu.Unlock()
		if !s.serve(c) || c.w.Flush() != nil {
			break
		}
	}
	// A scanner error (most commonly a line over the cap) is answered
	// before hanging up, whichever verb was reading when it struck, so the
	// client sees a protocol error instead of a bare EOF.
	if err := c.sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		c.w.WriteString("ERR line too long\n")
	} else if err != nil {
		fmt.Fprintf(c.w, "ERR %s\n", err)
	}
	c.w.Flush()
}

// Close stops the server: the listener and idle connections are torn
// down, every in-flight handler drains (an accepted request finishes
// before the store is considered final), then one sync makes the whole
// accepted prefix durable even under fsync=interval/never — so a
// graceful shutdown never loses an acknowledged write.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.db.Sync()
}

// conn is one connection as a verb sees it: sc holds the request line (a
// verb with a body scans on), w takes the reply, and in, log and slow are
// the server's settings as they stood when the request arrived.
type conn struct {
	sc   *bufio.Scanner
	w    *bufio.Writer
	in   *introspect.Introspector // nil when the server is untraced
	log  *logbuf.Logger
	slow time.Duration
}

// serve dispatches one request line to its verb. False hangs up after
// the reply is flushed: the stream can no longer be trusted to be in
// sync.
func (s *Server) serve(c *conn) bool {
	line := c.sc.Text()
	arrival := time.Now().UnixNano()
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		c.w.WriteString("PONG\n")
	case "WRITEB":
		// False is a fatal frame error: the server cannot trust how many
		// body lines follow, so it answers (if it can) and hangs up rather
		// than desynchronise the stream. The resilient client re-verifies
		// sync with PING on reconnect.
		return s.handleWriteBatch(c, rest, arrival)
	case "QUERY":
		s.handleQuery(c, rest, arrival)
	default:
		ctx := context.Background()
		c.answer(ctx, ctx, "unknown", arrival, fmt.Errorf("unknown command %q", cmd), nil)
	}
	return true
}

// answer is a verb's last step once its op span has ended (the reply is
// rendered outside the span): the line ok, or "ERR <err>", then the log.
func (c *conn) answer(sctx, wireCtx context.Context, cmd string, arrivalNanos int64, err error, ok []byte, extra ...string) {
	if err != nil {
		fmt.Fprintf(c.w, "ERR %v\n", err)
	} else {
		c.w.Write(ok)
		c.w.WriteByte('\n')
	}
	c.logOp(sctx, wireCtx, cmd, arrivalNanos, err, extra...)
}

// logOp emits the request's structured record: errors always, slow ops
// when the threshold is met, "ping" never. sctx is the span-carrying
// context (the record's trace identity); wireCtx is the frame's context,
// whose traceparent ties a slow-op record back to the bytes on the wire;
// arrivalNanos is when the verb took the frame to have arrived (where it
// backdates its spans to); extra key/value pairs join a slow-op record.
func (c *conn) logOp(sctx, wireCtx context.Context, cmd string, arrivalNanos int64, err error, extra ...string) {
	if c.log == nil || cmd == "ping" {
		return
	}
	elapsed := time.Duration(time.Now().UnixNano() - arrivalNanos)
	if err != nil {
		c.log.Error(sctx, "op failed", "cmd", cmd, "duration", elapsed.String(), "error", err.Error())
		return
	}
	if c.slow < 0 || elapsed < c.slow {
		return
	}
	kv := append([]string{"cmd", cmd, "duration", elapsed.String()}, extra...)
	if tp := introspect.TraceparentFromContext(wireCtx); tp != "" {
		kv = append(kv, "traceparent", tp)
	}
	c.log.Warn(sctx, "slow op", kv...)
}

// frameContext strips an optional leading "traceparent=<tp> " token off
// a frame body and returns a context rooted in the sender's span (or a
// plain background context for untagged / malformed tags — malformed
// tags are stripped but never corrupt parentage). Untagged frames from
// pre-traceparent clients are therefore handled exactly as before.
func frameContext(rest string) (context.Context, string) {
	remote, body, tagged := introspect.CutWireField(rest)
	ctx := context.Background()
	if tagged && remote.Valid() {
		ctx = introspect.ContextWithSpanContext(ctx, remote)
	}
	return ctx, body
}

// handleWriteBatch serves one WRITEB frame: header → n body lines →
// one ack. Returns false on a fatal frame error (invalid header, or
// the body cut short) after which the connection is closed; true means
// the stream is in sync regardless of whether the batch was accepted.
// The queue/parse/insert phases trace under a tsdb.server.writeb span
// backdated to header arrival: parse is the row scan (and the
// validation), insert the WAL record built from the received lines and
// the head append — no Point on the way.
func (s *Server) handleWriteBatch(c *conn, rest string, arrivalNanos int64) bool {
	ctx, body := frameContext(rest)
	wctx, op := c.in.StartSpanAt(ctx, "tsdb.server.writeb", arrivalNanos)
	_, qs := c.in.StartSpanAt(wctx, "tsdb.server.queue", arrivalNanos)
	qs.End(nil)

	nStr, opts, _ := strings.Cut(body, " ")
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 || n > MaxBatchPoints {
		err = fmt.Errorf("tsdb: bad batch header %q (want 1..%d points)", body, MaxBatchPoints)
		op.End(err)
		c.answer(wctx, ctx, "writeb", arrivalNanos, err, nil)
		return false
	}
	var token string
	if v, ok := strings.CutPrefix(strings.TrimSpace(opts), "id="); ok {
		token = v
	}

	// The header is valid: from here the body is ALWAYS drained whole so
	// a rejection leaves the stream in sync.
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	for i := 0; i < n; i++ {
		if !c.sc.Scan() {
			// No reply from here: the peer is gone, or the scanner failed
			// (a body line over the cap) and handle answers that.
			err = fmt.Errorf("tsdb: connection lost %d/%d lines into batch body", i, n)
			if serr := c.sc.Err(); serr != nil {
				err = fmt.Errorf("tsdb: batch body line %d/%d: %w", i, n, serr)
			}
			op.End(err)
			c.logOp(wctx, ctx, "writeb", arrivalNanos, err)
			return false
		}
		fb.body = append(append(fb.body, c.sc.Bytes()...), '\n')
	}
	// The rows are scanned from the pooled body in place, and fb goes back
	// to the pool, to be overwritten, once the frame is answered. Sound
	// because nothing keeps these strings past writeFrame: every name the
	// store keeps is cloned by interner.intern, the WAL record is a copy,
	// and a rejection's error formats its own.
	lines := unsafe.String(unsafe.SliceData(fb.body), len(fb.body))

	_, ps := c.in.StartSpan(wctx, "tsdb.server.parse")
	rb := getRowBuf()
	for i := 0; i < n; i++ {
		var line string
		line, lines, _ = strings.Cut(lines, "\n")
		if derr := rb.scan(line); derr != nil {
			err = fmt.Errorf("tsdb: batch point %d: %w", i, derr)
			break
		}
	}
	ps.End(err)

	// Retry of an applied batch: acknowledge without re-inserting, and
	// say so in the log — it is the op someone chasing a lost ack looks for.
	// The scratch goes back before the reply, unless a line was rejected.
	var extra []string
	if err == nil && token != "" && s.claimToken(token) {
		extra = []string{"dedup", "true"}
		putRowBuf(rb)
	} else if err == nil {
		_, is := c.in.StartSpan(wctx, "tsdb.server.insert")
		err = s.db.writeFrame(rb)
		putRowBuf(rb)
		is.End(err)
		if token != "" {
			s.releaseToken(token, err == nil)
		}
	}
	op.End(err)
	// The ack is appended into the writer's free space: a frame takes no
	// buffer for it.
	ack := strconv.AppendInt(append(c.w.AvailableBuffer(), "OK "...), int64(n), 10)
	c.answer(wctx, ctx, "writeb", arrivalNanos, err, ack, extra...)
	return true
}

// claimToken waits out an apply of token under way on another
// connection, then reports whether the batch has landed (a retry to ack
// without applying). When it has not, the caller now owns the token's
// apply and must end it with releaseToken; frames with other tokens do
// not wait for it.
func (s *Server) claimToken(token string) (applied bool) {
	s.tokensDone.L.Lock()
	defer s.tokensDone.L.Unlock()
	for {
		applied, known := s.tokens[token]
		if !known {
			s.tokens[token] = false
			return false
		}
		if applied {
			return true
		}
		s.tokensDone.Wait()
	}
}

// releaseToken ends a claimed apply. A failed apply is forgotten, so the
// batch stays retryable; an applied token takes the ring's oldest slot,
// evicting the token there.
func (s *Server) releaseToken(token string, ok bool) {
	s.tokensDone.L.Lock()
	if ok {
		s.tokens[token] = true
		if old := s.ring[s.next]; old != "" {
			delete(s.tokens, old)
		}
		s.ring[s.next] = token
		s.next = (s.next + 1) % dedupWindowSize
	} else {
		delete(s.tokens, token)
	}
	s.tokensDone.L.Unlock()
	s.tokensDone.Broadcast()
}

// handleQuery parses and executes one QUERY frame with parse/exec child
// spans under tsdb.server.query.
func (s *Server) handleQuery(c *conn, rest string, arrivalNanos int64) {
	ctx, body := frameContext(rest)
	qctx, op := c.in.StartSpanAt(ctx, "tsdb.server.query", arrivalNanos)
	_, ps := c.in.StartSpan(qctx, "tsdb.server.parse")
	q, err := ParseQuery(body)
	ps.End(err)
	var t table
	if err == nil {
		ectx, es := c.in.StartSpan(qctx, "tsdb.server.exec")
		// A cached aggregate is the cache's own table: read, not copied.
		t, err = s.db.execute(ectx, QueryRequest{Query: q})
		es.End(err)
	}
	// A result that will not encode fails the reply and the record, not
	// the span.
	op.End(err)
	var extra []string
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	if err == nil {
		// A pooled frame: a reply over the writer's 4 KiB grows no slice.
		fb.frame, err = appendTable(fb.frame, &t)
		extra = []string{"rows", strconv.Itoa(len(t.Times)), "bytes", strconv.Itoa(len(fb.frame))}
	}
	c.answer(qctx, ctx, "query", arrivalNanos, err, fb.frame, extra...)
}
