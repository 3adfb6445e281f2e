package resilience_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"pmove/internal/resilience"
	"pmove/internal/tsdb"
)

// Each fault type gets its own test: latency, jittered slow
// reads/writes, mid-stream reset, full partition, flappy accept.

func TestFaultLatency(t *testing.T) {
	db := tsdb.New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy, paddr := startProxy(t, addr, resilience.Faults{Latency: 30 * time.Millisecond}, 1)
	defer proxy.Close()
	pol := testPolicy()
	pol.ReadTimeout = 2 * time.Second
	c := dial(t, paddr, pol)
	defer c.Close()
	start := time.Now()
	if err := write(c, 1); err != nil {
		t.Fatalf("latency round trip: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("round trip took %v, latency not injected (want >= 2×30ms-ish)", d)
	}
	wantPoints(t, db, 1)
}

func TestFaultSlowChunk(t *testing.T) {
	srv, addr := startServer(t, tsdb.New())
	defer srv.Close()
	proxy, paddr := startProxy(t, addr, resilience.Faults{SlowChunk: 2, Latency: time.Millisecond}, 1)
	defer proxy.Close()
	pol := testPolicy()
	pol.ReadTimeout = 5 * time.Second
	pol.WriteTimeout = 5 * time.Second
	c := dial(t, paddr, pol)
	defer c.Close()
	ctx := context.Background()
	payload := strings.Repeat("x", 64)
	if err := c.WriteBatchContext(ctx, []tsdb.Point{{Measurement: payload, Fields: map[string]float64{"v": 7}, Time: 1}}); err != nil {
		t.Fatalf("trickled write: %v", err)
	}
	res, err := c.QueryContext(ctx, `SELECT "v" FROM "`+payload+`"`)
	if err != nil || res.Measurement != payload || len(res.Rows) != 1 || res.Rows[0].Values["v"] != 7 {
		t.Fatalf("trickled payload corrupted: %+v, %v", res, err)
	}
}

func TestFaultMidStreamReset(t *testing.T) {
	db := tsdb.New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	// Reset every connection after 64 bytes: individual ops succeed but
	// the wire keeps dying; retries must reconnect through it.
	proxy, paddr := startProxy(t, addr, resilience.Faults{ResetAfterBytes: 64}, 1)
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 4
	pol.Breaker.Threshold = 0 // resets are frequent; do not trip the breaker
	c := dial(t, paddr, pol)
	defer c.Close()
	ok := 0
	for i := 0; i < 10; i++ {
		if err := write(c, i+1); err == nil {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("only %d/10 ops survived injected resets", ok)
	}
	if c.Stats().Dials < 3 {
		t.Fatalf("expected repeated reconnects, stats %+v", c.Stats())
	}
	if pts, _ := db.Stats(); pts < uint64(ok) {
		t.Fatalf("store holds %d points, client acked %d", pts, ok)
	}
}

func TestFaultFlappyAccept(t *testing.T) {
	srv, addr := startServer(t, tsdb.New())
	defer srv.Close()
	// Dial is a single attempt, so the client connects through a proxy
	// without faults, which then hands its port to one that closes its
	// first three accepts on the spot: the retry loop must push through
	// to the fourth.
	clean, paddr := startProxy(t, addr, resilience.Faults{}, 1)
	pol := testPolicy()
	pol.MaxRetries = 5
	pol.Breaker.Threshold = 0
	c := dial(t, paddr, pol)
	defer c.Close()
	clean.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{FlapFirst: 3}, 1)
	if _, err := proxy.Listen(paddr); err != nil {
		t.Skipf("port %s not immediately reusable: %v", paddr, err)
	}
	defer proxy.Close()
	if err := write(c, 1); err != nil {
		t.Fatalf("flappy accept never converged: %v", err)
	}
	if d := c.Stats().Dials; d != 2 {
		t.Fatalf("%d dials, want 2: the first proxy's and the fourth accept", d)
	}
}

// TestFaultFlapProb: a seeded FlapProb schedule is a replayable fault
// plan. A client retries through the flaps, and two proxies built
// with the same seed close the same accepts.
func TestFaultFlapProb(t *testing.T) {
	srv, addr := startServer(t, tsdb.New())
	defer srv.Close()
	flaps := func() []bool {
		proxy, paddr := startProxy(t, addr, resilience.Faults{FlapProb: 0.5}, 7)
		defer proxy.Close()
		// One dial at a time, each waited out, so accept order is dial
		// order: a flapped accept closes before the server answers.
		var out []bool
		for i := 0; i < 24; i++ {
			conn, err := net.Dial("tcp", paddr)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			fmt.Fprintf(conn, "PING\n")
			line, err := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			out = append(out, err != nil || line != "PONG\n")
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

	proxy, paddr := startProxy(t, addr, resilience.Faults{FlapProb: 0.5}, 7)
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 8
	pol.Breaker.Threshold = 0
	// Dial is a single attempt: it takes the schedule's first accept
	// that is not flapped.
	var c *tsdb.Client
	for i := 0; c == nil && i < len(a); i++ {
		c, _ = tsdb.DialPolicy(paddr, pol)
	}
	if c == nil {
		t.Fatal("no dial got through the flaps")
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		proxy.DropConns() // every op redials through the flap schedule
		if err := write(c, i+1); err != nil {
			t.Fatalf("op %d never converged through probabilistic flaps: %v", i, err)
		}
	}
}

func TestRNGSeedDeterminism(t *testing.T) {
	a, b := resilience.NewRNG(42), resilience.NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG streams diverged for equal seeds")
		}
	}
	if resilience.NewRNG(1).Uint64() == resilience.NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first draws")
	}
}
