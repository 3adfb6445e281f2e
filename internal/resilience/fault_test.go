package resilience

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// Each fault type from the issue gets its own test: latency, jittered
// slow reads/writes, mid-stream reset, full partition, flappy accept.

func TestFaultLatency(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	proxy := NewProxy(srv.addr(), Faults{Latency: 30 * time.Millisecond}, 1)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.ReadTimeout = 2 * time.Second
	tr := NewTransport(addr, pol, nil)
	defer tr.Close()
	start := time.Now()
	if resp, err := roundTrip(tr, "slow"); err != nil || resp != "OK slow" {
		t.Fatalf("latency round trip: %q, %v", resp, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("round trip took %v, latency not injected (want >= 2×30ms-ish)", d)
	}
}

func TestFaultSlowChunk(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	proxy := NewProxy(srv.addr(), Faults{SlowChunk: 2, Latency: time.Millisecond}, 1)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.ReadTimeout = 5 * time.Second
	pol.WriteTimeout = 5 * time.Second
	tr := NewTransport(addr, pol, nil)
	defer tr.Close()
	payload := strings.Repeat("x", 64)
	if resp, err := roundTrip(tr, payload); err != nil || resp != "OK "+payload {
		t.Fatalf("trickled payload corrupted: %q, %v", resp, err)
	}
}

func TestFaultMidStreamReset(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	// Reset every connection after 64 bytes: individual ops succeed but
	// the wire keeps dying; retries must reconnect through it.
	proxy := NewProxy(srv.addr(), Faults{ResetAfterBytes: 64}, 1)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 4
	pol.Breaker.Threshold = 0 // resets are frequent; do not trip the breaker
	tr := NewTransport(addr, pol, nil)
	defer tr.Close()
	ok := 0
	for i := 0; i < 10; i++ {
		if resp, err := roundTrip(tr, "abcdefghij"); err == nil && resp == "OK abcdefghij" {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("only %d/10 ops survived injected resets", ok)
	}
	if tr.Stats().Dials < 3 {
		t.Fatalf("expected repeated reconnects, stats %+v", tr.Stats())
	}
}

func TestFaultFlappyAccept(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	proxy := NewProxy(srv.addr(), Faults{FlapFirst: 3}, 1)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 5
	pol.Breaker.Threshold = 0
	tr := NewTransport(addr, pol, pingProbe)
	defer tr.Close()
	// The first three accepts are closed on the spot; the retry loop must
	// push through to the fourth.
	if resp, err := roundTrip(tr, "through"); err != nil || resp != "OK through" {
		t.Fatalf("flappy accept never converged: %q, %v", resp, err)
	}
}

// TestFaultFlapProb: a seeded FlapProb schedule is a replayable fault
// plan. A transport retries through the flaps, and two proxies built
// with the same seed close the same accepts.
func TestFaultFlapProb(t *testing.T) {
	srv := newEchoServer(t)
	defer srv.close()
	flaps := func() []bool {
		proxy := NewProxy(srv.addr(), Faults{FlapProb: 0.5}, 7)
		addr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		// One dial at a time, each waited out, so accept order is dial
		// order: a flapped accept closes before the echo answers.
		var out []bool
		for i := 0; i < 24; i++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			fmt.Fprintf(conn, "probe\n")
			line, err := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			out = append(out, err != nil || line != "OK probe\n")
		}
		return out
	}
	a, b := flaps(), flaps()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed flapped different accepts:\n%v\n%v", a, b)
	}
	if !strings.Contains(fmt.Sprint(a), "true") || !strings.Contains(fmt.Sprint(a), "false") {
		t.Fatalf("FlapProb 0.5 over 24 accepts flapped all or none: %v", a)
	}

	proxy := NewProxy(srv.addr(), Faults{FlapProb: 0.5}, 7)
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 8
	pol.Breaker.Threshold = 0
	tr := NewTransport(addr, pol, pingProbe)
	defer tr.Close()
	for i := 0; i < 5; i++ {
		proxy.DropConns() // every op redials through the flap schedule
		if resp, err := roundTrip(tr, "through"); err != nil || resp != "OK through" {
			t.Fatalf("op %d never converged through probabilistic flaps: %q, %v", i, resp, err)
		}
	}
}

func TestRNGSeedDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG streams diverged for equal seeds")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first draws")
	}
}
