package resilience

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// ErrCircuitOpen is returned (wrapped) when the breaker fast-fails an
// operation without touching the network.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// permanentError marks a protocol-level failure: the server answered, the
// stream is still in sync, and retrying the same bytes cannot help.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps an error so Transport.Do neither retries it nor drops
// the connection: use it for rejections fully read off the wire ("ERR
// ..." responses). Plain errors are treated as I/O failures — the
// connection state is unknown, so the wire is torn down and the op
// retried on a fresh one (the desync fix: a client that half-read a
// response never parses the next op's reply as this one's).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Wire is one live connection: the deadline-wrapped conn plus a buffered
// reader bound to it. A Wire never outlives an I/O error.
type Wire struct {
	Conn net.Conn
	R    *bufio.Reader
}

// TransportStats counts the transport's fault handling. The duration
// fields let trace attribution and the registry agree on where op time
// went: attempts (dial + exchange) versus backoff waits between them.
type TransportStats struct {
	Dials        uint64 // successful connects (first + reconnects)
	Retries      uint64 // op attempts beyond the first
	Failures     uint64 // I/O failures observed
	BreakerOpens uint64 // times the circuit opened
	FastFails    uint64 // ops rejected by the open circuit
	AttemptNanos uint64 // total time inside attempts (dial + exchange)
	BackoffNanos uint64 // total time sleeping between attempts
}

// Transport maintains one line-oriented TCP connection with deadlines,
// retries, reconnect and a circuit breaker. A protocol package (tsdb)
// runs its request/response exchanges through Do; the transport owns
// when those exchanges happen and on which connection.
type Transport struct {
	addr  string
	pol   Policy
	probe func(*Wire) error

	mu      sync.Mutex
	wire    *Wire
	breaker *Breaker
	rng     *RNG
	stats   TransportStats
	closed  bool

	// in mirrors the transport's fault handling into the daemon's
	// self-observability registry under transport.<name>.*; nil-safe.
	in   *introspect.Introspector
	name string

	// log receives structured fault records (retries, breaker opens,
	// fast-fails, exhausted budgets) correlated to the op's trace;
	// nil-safe.
	log *logbuf.Logger

	// sleep and now are swappable for tests.
	sleep func(time.Duration)
	now   func() time.Time
}

// NewTransport builds a transport for addr. probe, when non-nil, runs on
// every fresh connection before it is used (the PING-based
// connection-state resync and the breaker's half-open probe); a probe
// failure counts as a connect failure.
func NewTransport(addr string, pol Policy, probe func(*Wire) error) *Transport {
	return &Transport{
		addr:    addr,
		pol:     pol,
		probe:   probe,
		breaker: NewBreaker(pol.Breaker),
		rng:     NewRNG(pol.Seed),
		sleep:   time.Sleep,
		now:     time.Now,
	}
}

// Addr returns the remote address.
func (t *Transport) Addr() string { return t.addr }

// SetIntrospection attaches a self-observability introspector; name
// becomes the transport.<name>.* metric namespace (e.g. "tsdb"). A nil
// introspector detaches.
func (t *Transport) SetIntrospection(in *introspect.Introspector, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.in = in
	t.name = name
}

// SetLogger attaches a structured log ring; records land under the
// given component (conventionally "transport.<name>"). Nil detaches.
func (t *Transport) SetLogger(l *logbuf.Logger) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log = l
}

// count bumps a transport.<name>.<suffix> self counter. Caller holds mu
// (or is in the ctor); nil introspection is a no-op.
func (t *Transport) count(suffix string, n uint64) {
	if t.in == nil {
		return
	}
	t.in.Metrics().Counter("transport." + t.name + "." + suffix).Add(n)
}

// observe records seconds into the transport.<name>.<suffix> latency
// histogram. Caller holds mu; nil introspection is a no-op.
func (t *Transport) observe(suffix string, seconds float64) {
	if t.in == nil {
		return
	}
	t.in.Metrics().Histogram("transport."+t.name+"."+suffix, introspect.DefaultLatencyBounds...).Observe(seconds)
}

// Policy returns the transport's policy.
func (t *Transport) Policy() Policy { return t.pol }

// BreakerState snapshots the circuit breaker's current state — the
// observable the testkit breaker-legality oracle validates transition
// sequences against.
func (t *Transport) BreakerState() BreakerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.breaker.State()
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.BreakerOpens = t.breaker.Opens()
	return s
}

// Connect eagerly establishes (and probes) the connection. Dial-time
// callers use it so a bad address fails fast instead of on first use.
func (t *Transport) Connect() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensureWire()
}

// Close tears the connection down; subsequent ops fail.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.wire != nil {
		err := t.wire.Conn.Close()
		t.wire = nil
		return err
	}
	return nil
}

// DoContext runs one request/response exchange with retry, reconnect and
// breaker semantics. op errors wrapped with Permanent are returned as-is
// (unwrapped) without retry; any other error drops the wire, records a
// breaker failure and retries after backoff, up to Policy.MaxRetries
// times. Cancelling ctx aborts the retry loop — including mid-backoff —
// with a wrapped ctx.Err(), so a caller never waits out a retry budget
// it no longer wants.
//
// The ctx handed to op carries the per-attempt trace span (under the
// transport.<name>.do op span), so an op that stamps a traceparent onto
// its wire frame parents the server's spans beneath the exact attempt
// that carried them — a retried exchange yields distinct server
// subtrees, not one merged blur. Each attempt's elapsed time (dial +
// exchange) and each backoff wait are recorded in TransportStats and the
// transport.<name>.{attempt,backoff}.seconds histograms.
func (t *Transport) DoContext(ctx context.Context, op func(ctx context.Context, w *Wire) error) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ctx, span := t.in.StartSpan(ctx, "transport."+t.name+".do")
	defer func() { span.End(err) }()
	t.count("ops", 1)
	var lastErr error
	attempts := t.pol.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	opensBefore := t.breaker.Opens()
	defer func() {
		if n := t.breaker.Opens() - opensBefore; n > 0 {
			t.count("breaker.opened", n)
			t.log.Warn(ctx, "circuit opened",
				"addr", t.addr, "cooldown", t.pol.Breaker.Cooldown.String())
		}
	}()
	for attempt := 0; attempt < attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("resilience: %s: %w", t.addr, cerr)
			return err
		}
		if attempt > 0 {
			t.stats.Retries++
			t.count("retries", 1)
			_, bspan := t.in.StartSpan(ctx, "transport."+t.name+".backoff")
			b0 := t.now()
			serr := t.sleepCtx(ctx, t.pol.Backoff.Delay(attempt, t.rng))
			waited := t.now().Sub(b0)
			t.stats.BackoffNanos += uint64(waited.Nanoseconds())
			t.observe("backoff.seconds", waited.Seconds())
			bspan.End(serr)
			if serr != nil {
				err = fmt.Errorf("resilience: %s: %w", t.addr, serr)
				return err
			}
		}
		actx, aspan := t.in.StartSpan(ctx, "transport."+t.name+".attempt")
		a0 := t.now()
		endAttempt := func(aerr error) {
			took := t.now().Sub(a0)
			t.stats.AttemptNanos += uint64(took.Nanoseconds())
			t.observe("attempt.seconds", took.Seconds())
			aspan.End(aerr)
		}
		if werr := t.ensureWire(); werr != nil {
			endAttempt(werr)
			if errors.Is(werr, ErrCircuitOpen) {
				// Retrying cannot help until the cooldown elapses.
				t.count("fastfails", 1)
				t.log.Warn(ctx, "fast-fail: circuit open", "addr", t.addr)
				err = werr
				return err
			}
			t.count("failures", 1)
			t.log.Warn(ctx, "connect failed",
				"addr", t.addr, "attempt", fmt.Sprint(attempt+1), "error", werr.Error())
			lastErr = werr
			continue
		}
		oerr := op(actx, t.wire)
		if oerr == nil {
			endAttempt(nil)
			t.breaker.Success()
			return nil
		}
		var pe *permanentError
		if errors.As(oerr, &pe) {
			// The server answered; the stream is in sync — the attempt
			// itself succeeded at the transport level.
			endAttempt(nil)
			t.breaker.Success()
			err = pe.err
			return err
		}
		endAttempt(oerr)
		t.dropWire()
		t.stats.Failures++
		t.count("failures", 1)
		t.breaker.Failure(t.now())
		t.log.Warn(ctx, "attempt failed, wire dropped",
			"addr", t.addr, "attempt", fmt.Sprint(attempt+1), "error", oerr.Error())
		lastErr = oerr
	}
	err = fmt.Errorf("resilience: %s: giving up after %d attempts: %w", t.addr, attempts, lastErr)
	t.log.Error(ctx, "giving up after retry budget",
		"addr", t.addr, "attempts", fmt.Sprint(attempts), "error", lastErr.Error())
	return err
}

// sleepCtx waits out a backoff delay unless ctx is cancelled first. The
// test-swappable t.sleep path stays synchronous (deterministic clocks);
// the real path selects on a timer against ctx.Done().
func (t *Transport) sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		t.sleep(d)
		return nil
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

// ensureWire returns with t.wire live, dialing if needed. Caller holds mu.
func (t *Transport) ensureWire() error {
	if t.closed {
		return fmt.Errorf("resilience: %s: transport closed", t.addr)
	}
	if t.wire != nil {
		return nil
	}
	if !t.breaker.Allow(t.now()) {
		t.stats.FastFails++
		return fmt.Errorf("resilience: %s: %w", t.addr, ErrCircuitOpen)
	}
	conn, err := net.DialTimeout("tcp", t.addr, t.pol.DialTimeout)
	if err != nil {
		t.stats.Failures++
		t.breaker.Failure(t.now())
		return err
	}
	dc := &deadlineConn{Conn: conn, rt: t.pol.ReadTimeout, wt: t.pol.WriteTimeout}
	w := &Wire{Conn: dc, R: bufio.NewReader(dc)}
	if t.probe != nil {
		if err := t.probe(w); err != nil {
			conn.Close()
			t.stats.Failures++
			t.breaker.Failure(t.now())
			return fmt.Errorf("resilience: %s: resync probe: %w", t.addr, err)
		}
	}
	t.wire = w
	t.stats.Dials++
	t.breaker.Success()
	return nil
}

func (t *Transport) dropWire() {
	if t.wire != nil {
		t.wire.Conn.Close()
		t.wire = nil
	}
}

// deadlineConn applies per-op deadlines around every Read/Write so no
// exchange can hang past the policy's timeouts even when the peer is
// black-holed by a partition.
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
