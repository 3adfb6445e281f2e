package tsdb

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/resilience"
)

// Client talks to a Server over one connection it owns, under a
// resilience.Policy: deadlines on every Read and Write, retried
// reconnects with seeded backoff, and a circuit breaker whose half-open
// probe is the protocol's own PING. PING doubles as the connection-state
// resync — a fresh connection is verified in step before any op uses
// it, so a half-read reply from a previous failure can never
// desynchronise later calls. A reply read whole ("ERR ...", or a body
// that does not decode) is never retried and keeps the connection.
// Writes are exactly-once under retry (see WriteBatchContext). Ops run
// one at a time.
type Client struct {
	addr string
	pol  resilience.Policy

	mu      sync.Mutex
	conn    net.Conn      // nil until dialed, and again after an I/O error
	r       *bufio.Reader // conn's
	reply   []byte        // a QUERY reply longer than r's buffer
	breaker *resilience.Breaker
	rng     *resilience.RNG
	stats   ClientStats
	closed  bool

	// in mirrors the fault handling into the self-observability registry
	// under names; nil-safe.
	in    *introspect.Introspector
	names opNames

	// log receives structured fault records (retries, breaker opens,
	// fast-fails, exhausted budgets) correlated to the op's trace;
	// nil-safe.
	log *logbuf.Logger
}

// opNames are the span and metric names of a client's fault handling,
// transport.<name>.*, rendered once by SetIntrospection.
type opNames struct {
	do, attempt, backoff                      string // spans
	ops, retries, failures, fastfails, opened string // counters
	attemptSeconds, backoffSeconds            string // histograms
}

// ClientStats counts a client's fault handling.
type ClientStats struct {
	Dials        uint64 // successful connects (first + reconnects)
	Retries      uint64 // op attempts beyond the first
	Failures     uint64 // I/O failures observed
	BreakerOpens uint64 // times the circuit opened
	FastFails    uint64 // ops rejected by the open circuit
}

// rejection is a reply read whole: the server answered, the stream is in
// step, and sending the same bytes again cannot help, so an op returning
// one is neither retried nor drops the connection.
type rejection struct{ err error }

func (r rejection) Error() string { return r.err.Error() }

// Dial connects to a Server with the default resilience policy. The
// initial connect is a single attempt so a bad address fails fast.
func Dial(addr string) (*Client, error) {
	return DialPolicy(addr, resilience.DefaultPolicy())
}

// DialPolicy connects with an explicit resilience policy.
func DialPolicy(addr string, pol resilience.Policy) (*Client, error) {
	c := &Client{addr: addr, pol: pol, breaker: resilience.NewBreaker(pol.Breaker), rng: resilience.NewRNG(pol.Seed)}
	if err := c.connect(); err != nil {
		return nil, fmt.Errorf("tsdb: dial %s: %w", addr, err)
	}
	return c, nil
}

// Transport returns the client itself. It is the name the frozen
// benchmark package (internal/bench) still spells, as in
// client.Transport().SetIntrospection.
func (c *Client) Transport() *Client { return c }

// SetIntrospection attaches a self-observability introspector; name
// becomes the transport.<name>.* span and metric namespace (e.g.
// "tsdb"). A nil introspector detaches.
func (c *Client) SetIntrospection(in *introspect.Introspector, name string) {
	p := "transport." + name + "."
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = in
	c.names = opNames{
		do: p + "do", attempt: p + "attempt", backoff: p + "backoff",
		ops: p + "ops", retries: p + "retries", failures: p + "failures", fastfails: p + "fastfails", opened: p + "breaker.opened",
		attemptSeconds: p + "attempt.seconds", backoffSeconds: p + "backoff.seconds",
	}
}

// SetLogger attaches a structured log ring; records land under the
// given component (conventionally "transport.<name>"). Nil detaches.
func (c *Client) SetLogger(l *logbuf.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = l
}

// BreakerState snapshots the circuit breaker's current state — the
// observable the testkit breaker-legality oracle validates transition
// sequences against.
func (c *Client) BreakerState() resilience.BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker.State()
}

// Stats snapshots the fault counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BreakerOpens = c.breaker.Opens()
	return s
}

// Close tears the connection down; later ops fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.dropConn()
}

// count bumps a self counter; nil introspection is a no-op. Caller holds
// mu, as for observe.
func (c *Client) count(name string, n uint64) {
	if c.in != nil {
		c.in.Metrics().Counter(name).Add(n)
	}
}

// observe records d into a latency histogram; nil introspection is a
// no-op.
func (c *Client) observe(name string, d time.Duration) {
	if c.in != nil {
		c.in.Metrics().Histogram(name, introspect.DefaultLatencyBounds...).Observe(d.Seconds())
	}
}

// do runs op, one exchange on the client's connection, under the
// policy. A rejection returns its cause without retry; any other error
// drops the connection, counts as a breaker failure and is retried after
// backoff, up to Policy.MaxRetries times. Cancelling ctx ends the loop,
// mid-backoff too, with a wrapped ctx.Err(), so a caller never waits out
// a retry budget it no longer wants.
//
// op's ctx carries the attempt's span, under the transport.<name>.do
// span, so a frame's traceparent parents the server's spans beneath the
// attempt that carried them: a retried exchange yields distinct server
// subtrees. The transport.<name>.{attempt,backoff}.seconds histograms
// take each attempt's time (dial and exchange) and each backoff wait.
func (c *Client) do(ctx context.Context, op func(ctx context.Context) error) (err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, span := c.in.StartSpan(ctx, c.names.do)
	defer func() { span.End(err) }()
	c.count(c.names.ops, 1)
	attempts := max(c.pol.MaxRetries+1, 1)
	opensBefore := c.breaker.Opens()
	defer func() {
		if n := c.breaker.Opens() - opensBefore; n > 0 {
			c.count(c.names.opened, n)
			c.log.Warn(ctx, "circuit opened",
				"addr", c.addr, "cooldown", c.pol.Breaker.Cooldown.String())
		}
	}()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("tsdb: %s: %w", c.addr, cerr)
		}
		if attempt > 0 {
			c.stats.Retries++
			c.count(c.names.retries, 1)
			_, bspan := c.in.StartSpan(ctx, c.names.backoff)
			b0 := time.Now()
			serr := sleepCtx(ctx, c.pol.Backoff.Delay(attempt, c.rng))
			c.observe(c.names.backoffSeconds, time.Since(b0))
			bspan.End(serr)
			if serr != nil {
				return fmt.Errorf("tsdb: %s: %w", c.addr, serr)
			}
		}
		actx, aspan := c.in.StartSpan(ctx, c.names.attempt)
		a0 := time.Now()
		if cerr := c.connect(); cerr != nil {
			c.observe(c.names.attemptSeconds, time.Since(a0))
			aspan.End(cerr)
			if errors.Is(cerr, resilience.ErrCircuitOpen) {
				// Retrying cannot help until the cooldown elapses.
				c.count(c.names.fastfails, 1)
				c.log.Warn(ctx, "fast-fail: circuit open", "addr", c.addr)
				return cerr
			}
			c.count(c.names.failures, 1)
			c.log.Warn(ctx, "connect failed",
				"addr", c.addr, "attempt", strconv.Itoa(attempt+1), "error", cerr.Error())
			lastErr = cerr
			continue
		}
		oerr := op(actx)
		if rej, ok := oerr.(rejection); ok || oerr == nil {
			// The server answered and the stream is in step: the attempt
			// succeeded as far as the connection goes.
			c.observe(c.names.attemptSeconds, time.Since(a0))
			aspan.End(nil)
			c.breaker.Success()
			return rej.err // nil unless rejected
		}
		c.observe(c.names.attemptSeconds, time.Since(a0))
		aspan.End(oerr)
		c.dropConn()
		c.stats.Failures++
		c.count(c.names.failures, 1)
		c.breaker.Failure(time.Now())
		c.log.Warn(ctx, "attempt failed, wire dropped",
			"addr", c.addr, "attempt", strconv.Itoa(attempt+1), "error", oerr.Error())
		lastErr = oerr
	}
	err = fmt.Errorf("tsdb: %s: giving up after %d attempts: %w", c.addr, attempts, lastErr)
	c.log.Error(ctx, "giving up after retry budget",
		"addr", c.addr, "attempts", strconv.Itoa(attempts), "error", lastErr.Error())
	return err
}

// sleepCtx waits out a backoff delay unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// connect returns with c.conn live, dialing one and running the PING
// resync on it when there is none. A failed dial or probe counts against
// the breaker. Caller holds mu, but for DialPolicy's first connect.
func (c *Client) connect() error {
	if c.closed {
		return fmt.Errorf("tsdb: %s: client closed", c.addr)
	}
	if c.conn != nil {
		return nil
	}
	if !c.breaker.Allow(time.Now()) {
		c.stats.FastFails++
		return fmt.Errorf("tsdb: %s: %w", c.addr, resilience.ErrCircuitOpen)
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.pol.DialTimeout)
	if err == nil {
		c.conn = &deadlineConn{Conn: nc, rt: c.pol.ReadTimeout, wt: c.pol.WriteTimeout}
		c.r = bufio.NewReader(c.conn)
		if err = c.ping(); err != nil {
			c.dropConn()
			err = fmt.Errorf("tsdb: %s: resync probe: %w", c.addr, err)
		}
	}
	if err != nil {
		c.stats.Failures++
		c.breaker.Failure(time.Now())
		return err
	}
	c.stats.Dials++
	c.breaker.Success()
	return nil
}

func (c *Client) dropConn() (err error) {
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	return err
}

// deadlineConn applies the policy's timeouts around every Read and Write,
// so no exchange can hang past them even when the peer is black-holed by
// a partition.
type deadlineConn struct {
	net.Conn
	rt, wt time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if d.rt > 0 {
		if err := d.Conn.SetReadDeadline(time.Now().Add(d.rt)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if d.wt > 0 {
		if err := d.Conn.SetWriteDeadline(time.Now().Add(d.wt)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Write(p)
}

// pingFrame is a package-level slice: converted at the call, it would
// escape through the net.Conn interface and allocate on every PING.
var pingFrame = []byte("PING\n")

// ping is the PING exchange on the client's connection: the resync probe
// on every fresh one, and PingContext's op.
func (c *Client) ping() error {
	if _, err := c.conn.Write(pingFrame); err != nil {
		return err
	}
	resp, err := c.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if string(bytes.TrimSpace(resp)) != "PONG" {
		return fmt.Errorf("tsdb: unexpected ping response %q", resp)
	}
	return nil
}

// PingContext checks liveness with the same exchange that resyncs a
// fresh connection: a reply other than PONG drops the connection and
// retries.
func (c *Client) PingContext(ctx context.Context) error {
	return c.do(ctx, func(context.Context) error { return c.ping() })
}

// wireTag renders the optional "traceparent=<tp> " frame token for the
// span context in ctx ("" when untraced). Built inside the per-attempt
// op, so each retry stamps its own attempt span and the server subtree
// parents under the exact attempt that carried it.
func wireTag(ctx context.Context) string {
	tp := introspect.TraceparentFromContext(ctx)
	if tp == "" {
		return ""
	}
	return introspect.WireField + tp + " "
}

// A batch's idempotency token is tokenNonce, '-' and a sequence number
// in hex: the crypto/rand nonce makes tokens unique across processes,
// the counter within one. The server remembers the tokens it has applied
// in a bounded table and acknowledges, without applying again, a token
// it has already committed.
var (
	tokenNonce = newTokenNonce()
	tokenSeq   atomic.Uint64
)

func newTokenNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; tokens
		// degrade to per-process-counter uniqueness only.
		copy(b[:], "pmovetok")
	}
	return hex.EncodeToString(b[:])
}

// WriteBatchContext ships a whole batch in ONE round-trip (a WRITEB
// frame: header + n body lines + one ack). The batch is encoded — and
// thereby validated — up front; an unencodable point, or one whose line
// would hold a newline (ErrLineBreak), returns a *BatchError before
// anything touches the wire, and so does a batch of
// more than MaxBatchPoints points (Index: MaxBatchPoints, wrapping
// ErrBatchTooLarge). An idempotency token is minted once per call and
// carried on every retry attempt, so a batch whose ack was lost is
// acknowledged (not re-applied) by the server's dedup window: writes are
// exactly-once under retry. Server-side rejections are not retried.
func (c *Client) WriteBatchContext(ctx context.Context, ps []Point) error {
	if len(ps) == 0 {
		return nil
	}
	if len(ps) > MaxBatchPoints {
		return &BatchError{Index: MaxBatchPoints, Err: fmt.Errorf("%w: %d points (limit %d)", ErrBatchTooLarge, len(ps), MaxBatchPoints)}
	}
	// The body is encoded once, whatever the number of attempts, and its
	// buffer goes back only when no attempt can send it again.
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	var err error
	if fb.body, fb.kvs, err = batchBody(fb.body, fb.kvs, ps); err != nil {
		return err
	}
	seq := tokenSeq.Add(1)
	return c.do(ctx, func(ctx context.Context) error {
		// One write for the whole frame: header and body reach the kernel
		// together, so a monitoring tick is one syscall + one RTT.
		fb.frame = append(append(fb.frame[:0], "WRITEB "...), wireTag(ctx)...)
		fb.frame = append(strconv.AppendInt(fb.frame, int64(len(ps)), 10), " id="...)
		fb.frame = strconv.AppendUint(append(append(fb.frame, tokenNonce...), '-'), seq, 16)
		fb.frame = append(append(fb.frame, '\n'), fb.body...)
		if _, err := c.conn.Write(fb.frame); err != nil {
			return err
		}
		resp, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if resp = bytes.TrimSpace(resp); !bytes.HasPrefix(resp, []byte("OK")) {
			return rejection{fmt.Errorf("tsdb: batch write rejected: %s", resp)}
		}
		return nil
	})
}

// batchBody appends a WRITEB body to dst, a line and a newline per point,
// through the key scratch kvs, and returns both grown; each point's
// fields are read in its predecessor's key order.
func batchBody(dst []byte, kvs []rowKV, ps []Point) ([]byte, []rowKV, error) {
	var prev []rowKV
	for i := range ps {
		line, grown, err := appendLine(dst, &ps[i], kvs, prev)
		if err == nil && bytes.IndexByte(line[len(dst):], '\n') >= 0 {
			err = fmt.Errorf("%w: point in %q", ErrLineBreak, ps[i].Measurement)
		}
		if err != nil {
			return dst, grown, &BatchError{Index: i, Err: err}
		}
		dst, kvs, prev = append(line, '\n'), grown, grown[:len(ps[i].Fields)]
	}
	return dst, kvs, nil
}

// frameBuf is a WRITEB body in flight, the batch's lines each with its
// '\n', at either end of the wire, with the key scratch it is encoded
// through and the frame, header and body, a client sends it in. It is
// pooled, not kept per connection or per client: a writer that next
// writes after a collection finds the pool empty and holds nothing
// meanwhile, where a buffer per connection stays as large as its biggest
// frame (mixed_rw heap_bytes_per_point +19 %).
type frameBuf struct {
	body  []byte
	kvs   []rowKV
	frame []byte
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufs.Get().(*frameBuf) }

// putFrameBuf pools fb, emptied so no batch's names stay reachable, up to
// a 1 MiB body or frame and 4 096 keys, as putRowBuf keeps a rowBuf.
func putFrameBuf(fb *frameBuf) {
	if max(cap(fb.body), cap(fb.frame)) > 1<<20 || cap(fb.kvs) > 1<<12 {
		return
	}
	clear(fb.kvs[:cap(fb.kvs)])
	fb.body, fb.kvs, fb.frame = fb.body[:0], fb.kvs[:0], fb.frame[:0]
	frameBufs.Put(fb)
}

// QueryContext runs a SELECT statement remotely. The statement is parsed
// here, so one that does not parse returns its error before anything is
// sent, and sent as written: the server parses it again, to the same
// cache key. The wire frames by lines, and the server's line reader
// drops a '\r' before the '\n', so a statement with either in it is sent
// in its canonical form (Query.String), which quotes a name that holds
// one.
func (c *Client) QueryContext(ctx context.Context, stmt string) (*Result, error) {
	q, err := ParseQuery(stmt)
	if err != nil {
		return nil, err
	}
	text := stmt
	if strings.ContainsAny(text, "\r\n") {
		if text = q.String(); strings.Contains(text, "\n") {
			return nil, fmt.Errorf("%w: query %q", ErrLineBreak, text)
		}
	}
	var res *Result
	err = c.do(ctx, func(ctx context.Context) error {
		fb := getFrameBuf()
		fb.frame = append(append(append(append(fb.frame, "QUERY "...), wireTag(ctx)...), text...), '\n')
		_, err := c.conn.Write(fb.frame)
		putFrameBuf(fb)
		if err != nil {
			return err
		}
		line, err := c.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			c.reply = append(c.reply[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = c.r.ReadSlice('\n')
				c.reply = append(c.reply, line...)
			}
			if line = c.reply; cap(c.reply) > 1<<20 {
				c.reply = nil // kept up to 1 MiB, as putRowBuf keeps a rowBuf
			}
		}
		if err != nil {
			return err
		}
		line = line[:len(line)-1]
		if bytes.HasPrefix(line, []byte("ERR")) {
			return rejection{fmt.Errorf("tsdb: query rejected: %s", bytes.TrimSpace(line))}
		}
		// The line was fully read, so the stream is in step; a malformed
		// body will not get better on retry. The result copies what it
		// keeps of the line.
		if res, err = decodeResult(line); err != nil {
			return rejection{err}
		}
		return nil
	})
	return res, err // res is nil unless the reply decoded
}
