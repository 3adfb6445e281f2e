package tsdb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/resilience"
	"pmove/internal/wire"
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
// remembers for retry dedup (see resilience.DedupWindow).
const dedupWindowSize = 1024

// Server exposes a DB over TCP with a line-oriented protocol:
//
//	WRITE <line protocol>     -> "OK" | "ERR <msg>"
//	WRITEB <n> [id=<tok>]     -> (after n body lines) "OK <n>" | "ERR <msg>"
//	QUERY <select statement>  -> one JSON document with the Result | "ERR"
//	PING                      -> "PONG"
//
// WRITEB is the batched write frame: the header line announces n, the
// next n lines are one point of line protocol each, and the server
// answers with ONE ack for the whole batch — a monitoring tick costs
// one round-trip instead of |instance domain|. An optional id= token
// makes the batch idempotent under client retry. The header's bounds
// are load-bearing for stream sync: a header with a valid n (1..
// MaxBatchPoints) ALWAYS consumes exactly n body lines before the ack,
// even when a body line is rejected; an invalid header gets an ERR and
// the connection is closed, because the server cannot know how many
// lines the client will send next. Like WRITE/QUERY, the header may
// carry a leading traceparent= token.
//
// The host runs one of these for the target's telemetry shippers (Figure
// 3: "the host runs ... InfluxDB").
type Server struct {
	*skeleton
	db    *DB
	dedup *resilience.DedupWindow
	// applying marks the batch tokens whose apply is under way. A retry
	// racing its own first attempt on another connection waits on
	// applied for that apply to end — then is acked as a dedup, or
	// applies itself if the first failed — instead of applying twice.
	// Guarded by applied.L.
	applying map[string]bool
	applied  *sync.Cond
}

// skeleton names wire.Server so that embedding it promotes Listen, Serve,
// Close and SetLogger without exporting a Server.Server field.
type skeleton = wire.Server

// NewServer wraps a DB.
func NewServer(db *DB) *Server {
	s := &Server{
		db:       db,
		dedup:    resilience.NewDedupWindow(dedupWindowSize),
		applying: map[string]bool{},
		applied:  sync.NewCond(&sync.Mutex{}),
	}
	s.skeleton = wire.NewServer(wire.Proto{
		Name: "tsdb", OpKey: "cmd", MaxLine: 8 << 20,
		Handle:    s.serve,
		ErrorLine: func(w *bufio.Writer, msg string) { fmt.Fprintf(w, "ERR %s\n", msg) },
		// Flush-on-close barrier: every accepted write has completed its
		// WAL append; one sync makes the whole accepted prefix durable
		// even under fsync=interval/never.
		Flush: db.Sync,
	})
	return s
}

// SetTracing attaches an introspector whose tracer records server-side
// spans (tsdb.server.write with parse/queue/insert children, ...); see
// wire.Server.SetTracing.
func (s *Server) SetTracing(in *introspect.Introspector) {
	s.skeleton.SetTracing(in)
	// The served DB's query-cache counters belong to the same
	// self-observability plane (pmove.self.query.cache.*).
	s.db.SetIntrospection(in)
}

// serve dispatches one request line to its verb.
func (s *Server) serve(c *wire.Conn) bool {
	line := c.Sc.Text()
	arrival := time.Now().UnixNano()
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		c.W.WriteString("PONG\n")
	case "WRITE":
		s.handleWrite(c, rest, arrival)
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
		answer(c, ctx, ctx, "unknown", arrival, fmt.Errorf("unknown command %q", cmd), nil)
	}
	return true
}

// answer is a verb's last step once its op span has ended (the reply is
// rendered outside the span): the line ok, or "ERR <err>", then the log.
func answer(c *wire.Conn, sctx, wireCtx context.Context, cmd string, arrivalNanos int64, err error, ok []byte, extra ...string) {
	if err != nil {
		fmt.Fprintf(c.W, "ERR %v\n", err)
	} else {
		c.W.Write(ok)
		c.W.WriteByte('\n')
	}
	c.LogOp(sctx, wireCtx, cmd, arrivalNanos, err, extra...)
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

// handleWrite scans one WRITE frame and inserts it as a one-row batch
// (the verb predates WRITEB; old clients still send it), tracing the
// queue/parse/insert phases under a tsdb.server.write span backdated to
// frame arrival so queue time (arrival → processing) is visible.
func (s *Server) handleWrite(c *wire.Conn, rest string, arrivalNanos int64) {
	ctx, body := frameContext(rest)
	wctx, op := c.In.StartSpanAt(ctx, "tsdb.server.write", arrivalNanos)
	_, qs := c.In.StartSpanAt(wctx, "tsdb.server.queue", arrivalNanos)
	qs.End(nil)
	_, ps := c.In.StartSpan(wctx, "tsdb.server.parse")
	var rb rowBuf
	err := rb.scan(body)
	ps.End(err)
	if err == nil {
		_, is := c.In.StartSpan(wctx, "tsdb.server.insert")
		err = s.db.writeFrame(&rb)
		// The reply names the cause alone: a one-point frame has no
		// batch index to report.
		var be *BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		is.End(err)
	}
	op.End(err)
	answer(c, wctx, ctx, "write", arrivalNanos, err, []byte("OK"))
}

// handleWriteBatch serves one WRITEB frame: header → n body lines →
// one ack. Returns false on a fatal frame error (invalid header, or
// the body cut short) after which the connection is closed; true means
// the stream is in sync regardless of whether the batch was accepted.
// The queue/parse/insert phases trace under a tsdb.server.writeb span
// backdated to header arrival: parse is the row scan (and the
// validation), insert the WAL record built from the received lines and
// the head append — no Point on the way.
func (s *Server) handleWriteBatch(c *wire.Conn, rest string, arrivalNanos int64) bool {
	ctx, body := frameContext(rest)
	wctx, op := c.In.StartSpanAt(ctx, "tsdb.server.writeb", arrivalNanos)
	_, qs := c.In.StartSpanAt(wctx, "tsdb.server.queue", arrivalNanos)
	qs.End(nil)

	nStr, opts, _ := strings.Cut(body, " ")
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 || n > MaxBatchPoints {
		err = fmt.Errorf("tsdb: bad batch header %q (want 1..%d points)", body, MaxBatchPoints)
		op.End(err)
		answer(c, wctx, ctx, "writeb", arrivalNanos, err, nil)
		return false
	}
	var token string
	if v, ok := strings.CutPrefix(strings.TrimSpace(opts), "id="); ok {
		token = v
	}

	// The header is valid: from here the body is ALWAYS drained whole so
	// a rejection leaves the stream in sync.
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if !c.Sc.Scan() {
			// No reply from here: the peer is gone, or the scanner failed
			// (a body line over the cap) and the skeleton answers that.
			err = fmt.Errorf("tsdb: connection lost %d/%d lines into batch body", i, n)
			if serr := c.Sc.Err(); serr != nil {
				err = fmt.Errorf("tsdb: batch body line %d/%d: %w", i, n, serr)
			}
			op.End(err)
			c.LogOp(wctx, ctx, "writeb", arrivalNanos, err)
			return false
		}
		lines = append(lines, c.Sc.Text())
	}

	_, ps := c.In.StartSpan(wctx, "tsdb.server.parse")
	// The frame's own scratch, sized from its separators (a tag or a field
	// each, at most) and dropped with it: an idle connection keeps nothing.
	kvs := n
	for _, line := range lines {
		kvs += strings.Count(line, ",")
	}
	rb := rowBuf{rows: make([]row, 0, n), kvs: make([]rowKV, 0, min(kvs, 1<<15))} // capped: unchecked yet
	for i, line := range lines {
		if derr := rb.scan(line); derr != nil {
			err = fmt.Errorf("tsdb: batch point %d: %w", i, derr)
			break
		}
	}
	ps.End(err)

	// Retry of an applied batch: acknowledge without re-inserting, and
	// say so in the log — it is the op someone chasing a lost ack looks for.
	var extra []string
	if err == nil && token != "" && s.claimToken(token) {
		extra = []string{"dedup", "true"}
	} else if err == nil {
		_, is := c.In.StartSpan(wctx, "tsdb.server.insert")
		err = s.db.writeFrame(&rb)
		is.End(err)
		if token != "" {
			s.releaseToken(token, err == nil)
		}
	}
	op.End(err)
	answer(c, wctx, ctx, "writeb", arrivalNanos, err, fmt.Appendf(nil, "OK %d", n), extra...)
	return true
}

// claimToken waits out an apply of token under way on another
// connection, then reports whether the batch has landed (a retry to ack
// without applying). When it has not, the caller now owns the token's
// apply and must end it with releaseToken; frames with other tokens do
// not wait for it.
func (s *Server) claimToken(token string) (applied bool) {
	s.applied.L.Lock()
	defer s.applied.L.Unlock()
	for s.applying[token] {
		s.applied.Wait()
	}
	if s.dedup.Seen(token) {
		return true
	}
	s.applying[token] = true
	return false
}

// releaseToken ends a claimed apply, recording the token only when the
// apply succeeded: a failed batch must stay retryable.
func (s *Server) releaseToken(token string, ok bool) {
	s.applied.L.Lock()
	if ok {
		s.dedup.Record(token)
	}
	delete(s.applying, token)
	s.applied.L.Unlock()
	s.applied.Broadcast()
}

// handleQuery parses and executes one QUERY frame with parse/exec child
// spans under tsdb.server.query.
func (s *Server) handleQuery(c *wire.Conn, rest string, arrivalNanos int64) {
	ctx, body := frameContext(rest)
	qctx, op := c.In.StartSpanAt(ctx, "tsdb.server.query", arrivalNanos)
	_, ps := c.In.StartSpan(qctx, "tsdb.server.parse")
	q, err := ParseQuery(body)
	ps.End(err)
	var res *Result
	if err == nil {
		ectx, es := c.In.StartSpan(qctx, "tsdb.server.exec")
		// A cached aggregate is the cache's own result: read, not copied.
		res, err = s.db.ExecuteContext(ectx, QueryRequest{Query: q})
		es.End(err)
	}
	// A result that will not encode fails the reply and the record, not
	// the span.
	op.End(err)
	var reply []byte
	var extra []string
	if err == nil {
		// A buffer for this request only: an idle connection keeps nothing.
		reply, err = appendResult(nil, res)
		extra = []string{"rows", strconv.Itoa(len(res.Rows)), "bytes", strconv.Itoa(len(reply))}
	}
	answer(c, qctx, ctx, "query", arrivalNanos, err, reply, extra...)
}

// Client talks to a Server through a resilient transport: per-op
// deadlines, retried reconnects with backoff, and a circuit breaker whose
// half-open probe is the protocol's own PING (which doubles as the
// connection-state resync — a fresh wire is verified in-sync before any
// op uses it, so a half-read response from a previous failure can never
// desynchronise later calls). Protocol rejections ("ERR ...") are fully
// read off the wire and never retried. Writes are exactly-once under
// retry (see WriteBatchContext).
type Client struct {
	tr *resilience.Transport
}

// wireTag renders the optional "traceparent=<tp> " frame token for the
// span context in ctx ("" when untraced). Built inside the transport's
// per-attempt closure, so each retry stamps its own attempt span and the
// server subtree parents under the exact attempt that carried it.
func wireTag(ctx context.Context) string {
	tp := introspect.TraceparentFromContext(ctx)
	if tp == "" {
		return ""
	}
	return introspect.WireField + tp + " "
}

// pingResync is the resync/half-open probe run on every fresh connection.
func pingResync(w *resilience.Wire) error {
	if _, err := fmt.Fprintln(w.Conn, "PING"); err != nil {
		return err
	}
	resp, err := w.R.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimSpace(resp) != "PONG" {
		return fmt.Errorf("tsdb: unexpected ping response %q", resp)
	}
	return nil
}

// Dial connects to a Server with the default resilience policy. The
// initial connect is a single attempt so a bad address fails fast.
func Dial(addr string) (*Client, error) {
	return DialPolicy(addr, resilience.DefaultPolicy())
}

// DialPolicy connects with an explicit resilience policy.
func DialPolicy(addr string, pol resilience.Policy) (*Client, error) {
	c := &Client{tr: resilience.NewTransport(addr, pol, pingResync)}
	if err := c.tr.Connect(); err != nil {
		c.tr.Close()
		return nil, fmt.Errorf("tsdb: dial %s: %w", addr, err)
	}
	return c, nil
}

// Stats exposes the transport's fault counters.
func (c *Client) Stats() resilience.TransportStats { return c.tr.Stats() }

// Transport exposes the underlying resilient transport, letting callers
// attach self-observability (Transport.SetIntrospection) without tsdb
// importing the introspect package (which imports tsdb).
func (c *Client) Transport() *resilience.Transport { return c.tr }

// WriteBatchContext ships a whole batch in ONE round-trip (a WRITEB
// frame: header + n body lines + one ack). The batch is encoded — and
// thereby validated — up front; an unencodable point, or one whose line
// would hold a newline (ErrLineBreak), returns a *BatchError before
// anything touches the wire, and so does a batch of
// more than MaxBatchPoints points (Index: MaxBatchPoints, wrapping
// ErrBatchTooLarge). An idempotency token is minted once per call and
// carried on every retry attempt, so a batch whose ack was lost is
// acknowledged (not re-applied) by the server's dedup window: writes are
// exactly-once under retry. Server-side rejections are permanent (fully
// read, never retried).
func (c *Client) WriteBatchContext(ctx context.Context, ps []Point) error {
	if len(ps) == 0 {
		return nil
	}
	if len(ps) > MaxBatchPoints {
		return &BatchError{Index: MaxBatchPoints, Err: fmt.Errorf("%w: %d points (limit %d)", ErrBatchTooLarge, len(ps), MaxBatchPoints)}
	}
	// The body is encoded once, whatever the number of attempts.
	body := make([]byte, 0, linesSizeHint(ps))
	for i := range ps {
		line, err := AppendLine(body, &ps[i])
		if err == nil && bytes.IndexByte(line[len(body):], '\n') >= 0 {
			err = fmt.Errorf("%w: point in %q", ErrLineBreak, ps[i].Measurement)
		}
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
		body = append(line, '\n')
	}
	token := resilience.NextOpToken()
	return c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		// One write for the whole frame: header + body reach the kernel
		// together, so a monitoring tick is one syscall + one RTT.
		frame := fmt.Appendf(make([]byte, 0, 128+len(body)), "WRITEB %s%d id=%s\n", wireTag(ctx), len(ps), token)
		if _, err := w.Conn.Write(append(frame, body...)); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		resp = strings.TrimSpace(resp)
		if !strings.HasPrefix(resp, "OK") {
			return resilience.Permanent(fmt.Errorf("tsdb: batch write rejected: %s", resp))
		}
		return nil
	})
}

// QueryContext runs a SELECT statement remotely. The statement is parsed
// here and sent in its canonical form (Query.String), which is one line
// whatever the text's layout — the wire frames by lines — so a statement
// that does not parse returns its error before anything is sent.
func (c *Client) QueryContext(ctx context.Context, stmt string) (*Result, error) {
	q, err := ParseQuery(stmt)
	if err != nil {
		return nil, err
	}
	text := q.String()
	if strings.Contains(text, "\n") {
		return nil, fmt.Errorf("%w: query %q", ErrLineBreak, text)
	}
	var res *Result
	err = c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		if _, err := fmt.Fprintf(w.Conn, "QUERY %s%s\n", wireTag(ctx), text); err != nil {
			return err
		}
		line, err := w.R.ReadBytes('\n')
		if err != nil {
			return err
		}
		line = line[:len(line)-1]
		if bytes.HasPrefix(line, []byte("ERR")) {
			return resilience.Permanent(fmt.Errorf("tsdb: query rejected: %s", bytes.TrimSpace(line)))
		}
		// The line was fully read, so the stream is in sync; a malformed
		// body will not get better on retry.
		res, err = decodeResult(line)
		return resilience.Permanent(err)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PingContext checks liveness.
func (c *Client) PingContext(ctx context.Context) error {
	return c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		if _, err := fmt.Fprintln(w.Conn, "PING"); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimSpace(resp) != "PONG" {
			return resilience.Permanent(fmt.Errorf("tsdb: unexpected ping response %q", resp))
		}
		return nil
	})
}

// Close closes the connection.
func (c *Client) Close() error { return c.tr.Close() }
