package docdb

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pmove/internal/resilience"
)

func testPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  time.Second,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		MaxRetries:   3,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Breaker:      resilience.BreakerConfig{Threshold: 4, Cooldown: 40 * time.Millisecond},
		Seed:         5,
	}
}

func startServer(t *testing.T, db *DB) (*Server, string) {
	t.Helper()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestServerLineTooLong mirrors the tsdb fix for the 16 MiB request cap.
func TestServerLineTooLong(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriterSize(conn, 1<<20)
	head := `{"op":"insert","doc":{"x":"`
	w.WriteString(head)
	w.WriteString(strings.Repeat("a", 16<<20-len(head)))
	if err := w.Flush(); err != nil {
		t.Fatalf("flush oversized request: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("server hung up without answering: %v", err)
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("bad error response %q: %v", line, err)
	}
	if resp.Error != "line too long" {
		t.Fatalf("got error %q, want %q", resp.Error, "line too long")
	}
}

// TestClientPing covers the new liveness op the breaker probes with.
func TestClientPing(t *testing.T) {
	srv, addr := startServer(t, New())
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClientRecoversAfterTimeout is docdb's desync regression: after a
// timed-out op, the next call must parse its own response.
func TestClientRecoversAfterTimeout(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{}, 1)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 0
	c, err := DialPolicy(paddr, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InsertContext(context.Background(), "col", Doc{"_id": "a", "v": 1.0}); err != nil {
		t.Fatal(err)
	}
	proxy.Partition()
	if _, err := c.InsertContext(context.Background(), "col", Doc{"_id": "b", "v": 2.0}); err == nil {
		t.Fatal("partitioned insert should fail")
	}
	proxy.Heal()
	// The historical bug: this Count would read the stale insert response.
	n, err := c.CountContext(context.Background(), "col", nil)
	if err != nil {
		t.Fatalf("count after failed insert: %v", err)
	}
	if n < 1 {
		t.Fatalf("count misparsed: got %d", n)
	}
	got, err := c.GetContext(context.Background(), "col", "a")
	if err != nil || got["v"] != 1.0 {
		t.Fatalf("get after recovery: %v %v", got, err)
	}
}

// TestClientConcurrentRace hammers one shared client from many
// goroutines (run under -race).
func TestClientConcurrentRace(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers, ops = 8, 30
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("w%d-%d", wkr, i)
				switch i % 3 {
				case 0:
					if _, err := c.UpsertContext(context.Background(), "race", Doc{"_id": id, "v": float64(i)}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.FindContext(context.Background(), "race", nil); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := c.PingContext(context.Background()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	want := workers * ((ops + 2) / 3)
	if n := db.Collection("race").Count(nil); n != want {
		t.Fatalf("server holds %d docs, want %d", n, want)
	}
}

// TestClientSurvivesResets pushes upserts through a resetting link;
// retries must carry every op to completion.
func TestClientSurvivesResets(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{ResetAfterBytes: 512}, 3)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pol := testPolicy()
	pol.MaxRetries = 5
	pol.Breaker.Threshold = 0
	c, err := DialPolicy(paddr, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok := 0
	for i := 0; i < 10; i++ {
		if _, err := c.UpsertContext(context.Background(), "r", Doc{"_id": fmt.Sprintf("d%d", i), "v": float64(i)}); err == nil {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("only %d/10 upserts survived resets", ok)
	}
	if n := db.Collection("r").Count(nil); n < ok {
		t.Fatalf("server holds %d docs, client acked %d", n, ok)
	}
}
