package resilience

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pmove/internal/introspect"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.2}
	r1, r2 := NewRNG(7), NewRNG(7)
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
	nb := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2}
	if nb.Delay(2, nil) != 2*nb.Delay(1, nil) {
		t.Fatalf("exponential growth broken: %v then %v", nb.Delay(1, nil), nb.Delay(2, nil))
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})
	if !b.Allow(now) {
		t.Fatal("fresh breaker should allow")
	}
	b.Failure(now)
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatalf("below threshold should stay closed, got %s", b.State())
	}
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatalf("threshold reached should open, got %s", b.State())
	}
	if b.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker within cooldown should fast-fail")
	}
	if !b.Allow(now.Add(time.Second)) {
		t.Fatal("cooldown elapsed should admit a half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("want half-open, got %s", b.State())
	}
	// Failed probe re-opens with a fresh cooldown.
	b.Failure(now.Add(time.Second))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should re-open, got %s", b.State())
	}
	if b.Allow(now.Add(1900 * time.Millisecond)) {
		t.Fatal("re-opened breaker should still be cooling down")
	}
	if !b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("second cooldown elapsed should admit a probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, got %s", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("want 2 opens, got %d", b.Opens())
	}
}

// echoServer answers every line with "OK <line>"; "PING" gets "PONG".
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]bool
	ops   int
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					s.mu.Lock()
					s.ops++
					s.mu.Unlock()
					line := sc.Text()
					if line == "PING" {
						fmt.Fprintln(c, "PONG")
					} else {
						fmt.Fprintf(c, "OK %s\n", line)
					}
				}
			}(conn)
		}
	}()
	return s
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

func (s *echoServer) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]bool{}
	s.mu.Unlock()
}

func testPolicy() Policy {
	return Policy{
		DialTimeout:  500 * time.Millisecond,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		MaxRetries:   3,
		Backoff:      Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Breaker:      BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
		Seed:         3,
	}
}

func pingProbe(w *Wire) error {
	if _, err := fmt.Fprintln(w.Conn, "PING"); err != nil {
		return err
	}
	resp, err := w.R.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimSpace(resp) != "PONG" {
		return fmt.Errorf("unexpected probe response %q", resp)
	}
	return nil
}

func roundTrip(tr *Transport, line string) (string, error) {
	var out string
	err := tr.DoContext(context.Background(), func(_ context.Context, w *Wire) error {
		if _, err := fmt.Fprintln(w.Conn, line); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		out = strings.TrimSpace(resp)
		return nil
	})
	return out, err
}

func TestTransportReconnectAndBreaker(t *testing.T) {
	srv := newEchoServer(t)
	tr := NewTransport(srv.addr(), testPolicy(), pingProbe)
	defer tr.Close()
	if err := tr.Connect(); err != nil {
		t.Fatal(err)
	}
	if resp, err := roundTrip(tr, "hello"); err != nil || resp != "OK hello" {
		t.Fatalf("round trip: %q, %v", resp, err)
	}

	// Kill the server: ops must fail after bounded retries, then the
	// breaker must fast-fail without touching the network.
	addr := srv.addr()
	srv.close()
	if _, err := roundTrip(tr, "down"); err == nil {
		t.Fatal("op against dead server should fail")
	}
	for i := 0; i < 3; i++ {
		roundTrip(tr, "still down")
	}
	start := time.Now()
	_, err := roundTrip(tr, "fast fail")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("fast-fail took %v, breaker is not short-circuiting", d)
	}

	// Restart on the same port; after the cooldown the half-open PING
	// probe reconnects and the op succeeds.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	ln.Close()
	srv2 := newEchoServer(t)
	defer srv2.close()
	tr2addr := srv2.addr()
	tr2 := NewTransport(tr2addr, testPolicy(), pingProbe)
	defer tr2.Close()
	if resp, err := roundTrip(tr2, "back"); err != nil || resp != "OK back" {
		t.Fatalf("fresh transport after restart: %q, %v", resp, err)
	}
	st := tr.Stats()
	if st.BreakerOpens == 0 || st.FastFails == 0 || st.Failures == 0 {
		t.Fatalf("stats did not record the outage: %+v", st)
	}
}

func TestTransportHalfOpenRecovery(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	pol := testPolicy()
	tr := NewTransport(srv.addr(), pol, pingProbe)
	defer tr.Close()
	if err := tr.Connect(); err != nil {
		t.Fatal(err)
	}
	// Drop the server conns (not the listener) so the next op hits a dead
	// wire but reconnect succeeds — the resync probe runs transparently.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	if resp, err := roundTrip(tr, "resync"); err != nil || resp != "OK resync" {
		t.Fatalf("transparent reconnect failed: %q, %v", resp, err)
	}
	if tr.Stats().Dials < 2 {
		t.Fatalf("expected a reconnect, stats %+v", tr.Stats())
	}
}

func TestTransportPermanentNotRetried(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	tr := NewTransport(srv.addr(), testPolicy(), nil)
	defer tr.Close()
	calls := 0
	wantErr := fmt.Errorf("rejected")
	err := tr.DoContext(context.Background(), func(_ context.Context, w *Wire) error {
		calls++
		// Full round trip keeps the stream in sync, then reject.
		if _, err := fmt.Fprintln(w.Conn, "x"); err != nil {
			return err
		}
		if _, err := w.R.ReadString('\n'); err != nil {
			return err
		}
		return Permanent(wantErr)
	})
	if err != wantErr {
		t.Fatalf("want the unwrapped permanent error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent errors must not retry, got %d calls", calls)
	}
	// The wire survived: next op reuses it.
	before := tr.Stats().Dials
	if resp, err := roundTrip(tr, "after"); err != nil || resp != "OK after" {
		t.Fatalf("op after permanent error: %q, %v", resp, err)
	}
	if tr.Stats().Dials != before {
		t.Fatal("permanent error should not drop the connection")
	}
}

func TestTransportDeadlineAgainstPartition(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	proxy := NewProxy(srv.addr(), Faults{}, 1)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 1
	tr := NewTransport(addr, pol, nil)
	defer tr.Close()
	if resp, err := roundTrip(tr, "pre"); err != nil || resp != "OK pre" {
		t.Fatalf("through proxy: %q, %v", resp, err)
	}
	proxy.Partition()
	start := time.Now()
	if _, err := roundTrip(tr, "void"); err == nil {
		t.Fatal("partitioned op should fail")
	}
	elapsed := time.Since(start)
	// 2 attempts × (read deadline) + backoff; generous upper bound proves
	// we did not hang.
	if elapsed > 2*time.Second {
		t.Fatalf("partitioned op took %v — deadlines not applied", elapsed)
	}
	proxy.Heal()
	if resp, err := roundTrip(tr, "healed"); err != nil || resp != "OK healed" {
		t.Fatalf("after heal: %q, %v", resp, err)
	}
}

// TestTransportDurationStats checks the per-attempt and backoff elapsed
// accounting: TransportStats duration fields and the
// transport.<name>.{attempt,backoff}.seconds histograms must agree with
// the retry counters, so trace attribution has a registry cross-check.
func TestTransportDurationStats(t *testing.T) {
	srv := newEchoServer(t)
	tr := NewTransport(srv.addr(), testPolicy(), nil)
	defer tr.Close()
	in := introspect.New()
	tr.SetIntrospection(in, "echo")

	if _, err := roundTrip(tr, "hello"); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.AttemptNanos == 0 {
		t.Fatalf("successful op recorded no attempt time: %+v", st)
	}
	if st.BackoffNanos != 0 {
		t.Fatalf("no retries yet but backoff time recorded: %+v", st)
	}

	// Kill the server: the retry loop must accumulate both attempt time
	// (failed dials/exchanges) and backoff waits.
	srv.close()
	if _, err := roundTrip(tr, "down"); err == nil {
		t.Fatal("op against dead server should fail")
	}
	st = tr.Stats()
	if st.Retries == 0 || st.BackoffNanos == 0 {
		t.Fatalf("retry waits not accounted: %+v", st)
	}

	snap := in.Snapshot()
	att, ok := snap.Get("transport.echo.attempt.seconds")
	if !ok || att.Kind != introspect.KindHistogram {
		t.Fatalf("attempt histogram missing: %+v ok=%v", att, ok)
	}
	// One successful attempt plus every attempt of the failed op.
	if want := 1 + st.Retries + 1; att.Count != want {
		t.Errorf("attempt histogram count = %d, want %d", att.Count, want)
	}
	bo, ok := snap.Get("transport.echo.backoff.seconds")
	if !ok || bo.Count != st.Retries {
		t.Errorf("backoff histogram count = %d (ok=%v), want %d", bo.Count, ok, st.Retries)
	}
	if bo.Sum <= 0 {
		t.Errorf("backoff histogram sum = %v, want > 0", bo.Sum)
	}
}
