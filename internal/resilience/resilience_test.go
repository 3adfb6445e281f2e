package resilience_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/resilience"
	"pmove/internal/tsdb"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := resilience.Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.2}
	r1, r2 := resilience.NewRNG(7), resilience.NewRNG(7)
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := b.Delay(attempt, r1)
		d2 := b.Delay(attempt, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, d1, d2)
		}
		if max := time.Duration(float64(b.Max) * 1.2); d1 > max {
			t.Fatalf("attempt %d: delay %v exceeds jittered cap %v", attempt, d1, max)
		}
		if d1 <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d1)
		}
	}
	if d := b.Delay(0, r1); d != 0 {
		t.Fatalf("attempt 0 should not back off, got %v", d)
	}
	// Growth before the cap: attempt 2 > attempt 1 on average; compare
	// without jitter.
	nb := resilience.Backoff{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2}
	if nb.Delay(2, nil) != 2*nb.Delay(1, nil) {
		t.Fatalf("exponential growth broken: %v then %v", nb.Delay(1, nil), nb.Delay(2, nil))
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	b := resilience.NewBreaker(resilience.BreakerConfig{Threshold: 3, Cooldown: time.Second})
	if !b.Allow(now) {
		t.Fatal("fresh breaker should allow")
	}
	b.Failure(now)
	b.Failure(now)
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("below threshold should stay closed, got %s", b.State())
	}
	b.Failure(now)
	if b.State() != resilience.BreakerOpen {
		t.Fatalf("threshold reached should open, got %s", b.State())
	}
	if b.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker within cooldown should fast-fail")
	}
	if !b.Allow(now.Add(time.Second)) {
		t.Fatal("cooldown elapsed should admit a half-open probe")
	}
	if b.State() != resilience.BreakerHalfOpen {
		t.Fatalf("want half-open, got %s", b.State())
	}
	// Failed probe re-opens with a fresh cooldown.
	b.Failure(now.Add(time.Second))
	if b.State() != resilience.BreakerOpen {
		t.Fatalf("failed probe should re-open, got %s", b.State())
	}
	if b.Allow(now.Add(1900 * time.Millisecond)) {
		t.Fatal("re-opened breaker should still be cooling down")
	}
	if !b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("second cooldown elapsed should admit a probe")
	}
	b.Success()
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("successful probe should close, got %s", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("want 2 opens, got %d", b.Opens())
	}
}

// The tests below drive the policy where it runs: a tsdb.Client, whose
// every fresh connection is verified by a PING before use, against a
// tsdb.Server, through a Proxy where the fault is on the path.

func testPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  500 * time.Millisecond,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		MaxRetries:   3,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Breaker:      resilience.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		Seed:         3,
	}
}

// startServer serves db on a free port.
func startServer(t *testing.T, db *tsdb.DB) (*tsdb.Server, string) {
	t.Helper()
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// startProxy puts a proxy with faults in front of backend.
func startProxy(t *testing.T, backend string, faults resilience.Faults, seed uint64) (*resilience.Proxy, string) {
	t.Helper()
	proxy := resilience.NewProxy(backend, faults, seed)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return proxy, addr
}

func dial(t *testing.T, addr string, pol resilience.Policy) *tsdb.Client {
	t.Helper()
	c, err := tsdb.DialPolicy(addr, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// write ships one point of measurement m at time i, value i.
func write(c *tsdb.Client, i int) error {
	return c.WriteBatchContext(context.Background(), []tsdb.Point{{Measurement: "m", Fields: map[string]float64{"v": float64(i)}, Time: int64(i)}})
}

// wantPoints fails unless db holds n points.
func wantPoints(t *testing.T, db *tsdb.DB, n uint64) {
	t.Helper()
	if pts, _ := db.Stats(); pts != n {
		t.Fatalf("store holds %d points, want %d", pts, n)
	}
}

func TestTransportReconnectAndBreaker(t *testing.T) {
	db := tsdb.New()
	srv, addr := startServer(t, db)
	c := dial(t, addr, testPolicy())
	defer c.Close()
	if err := write(c, 1); err != nil {
		t.Fatal(err)
	}

	// Kill the server: ops must fail after bounded retries, then the
	// breaker must fast-fail without touching the network.
	srv.Close()
	if err := write(c, 2); err == nil {
		t.Fatal("op against dead server should fail")
	}
	for i := 0; i < 3; i++ {
		write(c, 3)
	}
	start := time.Now()
	err := c.PingContext(context.Background())
	if !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("fast-fail took %v, breaker is not short-circuiting", d)
	}

	// Restart on the same port; after the cooldown the half-open PING
	// probe reconnects and the op succeeds.
	srv2 := tsdb.NewServer(db)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer srv2.Close()
	time.Sleep(testPolicy().Breaker.Cooldown)
	if err := write(c, 4); err != nil {
		t.Fatalf("same client after restart: %v", err)
	}
	if st := c.BreakerState(); st != resilience.BreakerClosed {
		t.Fatalf("breaker %s after the probe succeeded, want closed", st)
	}
	st := c.Stats()
	if st.BreakerOpens == 0 || st.FastFails == 0 || st.Failures == 0 {
		t.Fatalf("stats did not record the outage: %+v", st)
	}
	wantPoints(t, db, 2)
}

func TestTransportHalfOpenRecovery(t *testing.T) {
	db := tsdb.New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy, paddr := startProxy(t, addr, resilience.Faults{}, 1)
	defer proxy.Close()
	c := dial(t, paddr, testPolicy())
	defer c.Close()
	// Drop the connections (not the listener) so the next op hits a dead
	// wire but reconnect succeeds — the resync probe runs transparently.
	proxy.DropConns()
	if err := write(c, 1); err != nil {
		t.Fatalf("transparent reconnect failed: %v", err)
	}
	if c.Stats().Dials < 2 {
		t.Fatalf("expected a reconnect, stats %+v", c.Stats())
	}
	wantPoints(t, db, 1)
}

// rejectingServer answers PING with PONG, a QUERY naming "bad" with a
// body that does not decode, and every other request with "ERR x" — a
// WRITEB once its body is read. It counts the requests it reads.
func rejectingServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var requests atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					requests.Add(1)
					reply := "ERR x\n"
					switch {
					case line == "PING\n":
						reply = "PONG\n"
					case strings.HasPrefix(line, "WRITEB "):
						n, _ := strconv.Atoi(strings.Fields(line)[1])
						for ; n > 0; n-- {
							r.ReadString('\n')
						}
					case strings.Contains(line, `"bad"`):
						reply = "{\n"
					}
					if _, err := conn.Write([]byte(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &requests
}

// TestTransportPermanentNotRetried: a reply read whole — an ERR line, or
// a body that does not decode — returns its cause as it is, after one
// attempt, and the connection stays in use.
func TestTransportPermanentNotRetried(t *testing.T) {
	addr, requests := rejectingServer(t)
	c := dial(t, addr, testPolicy())
	defer c.Close()
	ctx := context.Background()
	if err := write(c, 1); err == nil || err.Error() != "tsdb: batch write rejected: ERR x" {
		t.Fatalf("want the unwrapped rejection, got %v", err)
	}
	if _, err := c.QueryContext(ctx, `SELECT "v" FROM "m"`); err == nil || err.Error() != "tsdb: query rejected: ERR x" {
		t.Fatalf("want the unwrapped rejection, got %v", err)
	}
	if _, err := c.QueryContext(ctx, `SELECT "v" FROM "bad"`); err == nil || strings.Contains(err.Error(), "giving up") {
		t.Fatalf("want the decode error unwrapped, got %v", err)
	}
	// The PING of the dial, then one attempt each.
	if n := requests.Load(); n != 4 {
		t.Fatalf("permanent errors must not retry: %d requests, want 4", n)
	}
	// The wire survived: next op reuses it.
	if err := c.PingContext(ctx); err != nil {
		t.Fatalf("op after permanent error: %v", err)
	}
	if st := c.Stats(); st.Dials != 1 || st.Retries != 0 {
		t.Fatalf("permanent error should not drop the connection: %+v", st)
	}
}

// TestTransportDeadlineAgainstPartition: no op hangs against a
// partition, and the client recovers once it heals.
func TestTransportDeadlineAgainstPartition(t *testing.T) {
	db := tsdb.New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy, paddr := startProxy(t, addr, resilience.Faults{}, 1)
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 1
	c := dial(t, paddr, pol)
	defer c.Close()
	if err := write(c, 1); err != nil {
		t.Fatalf("through proxy: %v", err)
	}
	proxy.Partition()
	start := time.Now()
	if err := write(c, 2); err == nil {
		t.Fatal("partitioned op should fail")
	}
	elapsed := time.Since(start)
	// 2 attempts × (read deadline) + backoff; generous upper bound proves
	// we did not hang.
	if elapsed > 2*time.Second {
		t.Fatalf("partitioned op took %v — deadlines not applied", elapsed)
	}
	proxy.Heal()
	// The second attempt's resync probe met the partition too, the
	// breaker's second failure in a row: it reconnects once the cooldown
	// admits its half-open probe.
	time.Sleep(pol.Breaker.Cooldown)
	if err := write(c, 3); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	wantPoints(t, db, 2)
}

// TestTransportDurationStats checks the per-attempt and backoff elapsed
// accounting: the transport.<name>.{attempt,backoff}.seconds histograms
// must agree with the retry counters, so trace attribution has a
// registry cross-check.
func TestTransportDurationStats(t *testing.T) {
	srv, addr := startServer(t, tsdb.New())
	c := dial(t, addr, testPolicy())
	defer c.Close()
	in := introspect.New()
	c.SetIntrospection(in, "tsdb")

	if err := write(c, 1); err != nil {
		t.Fatal(err)
	}
	snap := in.Snapshot()
	if att, ok := snap.Get("transport.tsdb.attempt.seconds"); !ok || att.Count != 1 || att.Sum <= 0 {
		t.Fatalf("successful op recorded no attempt time: %+v ok=%v", att, ok)
	}
	if bo, ok := snap.Get("transport.tsdb.backoff.seconds"); ok && bo.Count != 0 {
		t.Fatalf("no retries yet but backoff time recorded: %+v", bo)
	}

	// Kill the server: the retry loop must accumulate both attempt time
	// (failed dials/exchanges) and backoff waits.
	srv.Close()
	if err := write(c, 2); err == nil {
		t.Fatal("op against dead server should fail")
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Fatalf("retry waits not accounted: %+v", st)
	}

	snap = in.Snapshot()
	att, ok := snap.Get("transport.tsdb.attempt.seconds")
	if !ok || att.Kind != introspect.KindHistogram {
		t.Fatalf("attempt histogram missing: %+v ok=%v", att, ok)
	}
	// One successful attempt plus every attempt of the failed op.
	if want := 1 + st.Retries + 1; att.Count != want {
		t.Errorf("attempt histogram count = %d, want %d", att.Count, want)
	}
	bo, ok := snap.Get("transport.tsdb.backoff.seconds")
	if !ok || bo.Count != st.Retries {
		t.Errorf("backoff histogram count = %d (ok=%v), want %d", bo.Count, ok, st.Retries)
	}
	if bo.Sum <= 0 {
		t.Errorf("backoff histogram sum = %v, want > 0", bo.Sum)
	}
}
