package tsdb

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
)

// stubServer answers a client as a Server does, with PONG to a PING and
// "OK 5" to a WRITEB of 5 points once its body is read, and hands each
// WRITEB header line to header, when it is not nil. It reads with one
// kept reader per connection and writes constant replies, so it
// allocates nothing per request: testing.AllocsPerRun counts the client
// alone.
func stubServer(t *testing.T, header func(line []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	pong, ok := []byte("PONG\n"), []byte("OK 5\n")
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 64<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			reply := pong
			if bytes.HasPrefix(line, []byte("WRITEB 5 ")) {
				if header != nil {
					header(line)
				}
				for i := 0; i < 5; i++ {
					if _, err := r.ReadSlice('\n'); err != nil {
						return
					}
				}
				reply = ok
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestClientOpAllocations: a warm client op allocates nothing of its
// own — no span or metric name rendered per op, no token formatted, no
// reply line copied — for a WriteBatchContext of BenchmarkClientWriteBatch's
// tick and for a PingContext.
func TestClientOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	c, err := Dial(stubServer(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps := clientTick()
	ctx := context.Background()
	write := func() {
		if err := c.WriteBatchContext(ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	ping := func() {
		if err := c.PingContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	write()
	ping()
	w, p := testing.AllocsPerRun(100, write), testing.AllocsPerRun(100, ping)
	t.Logf("objects per write of 5×88: %v, per ping: %v", w, p)
	if w > 0 {
		t.Errorf("a warm WriteBatchContext allocates %v objects; want none", w)
	}
	if p > 0 {
		t.Errorf("a warm PingContext allocates %v objects; want none", p)
	}
}

// TestBatchTokenUnique: the idempotency tokens that concurrent clients
// append to their frames never repeat — the whole exactly-once scheme
// rests on two logical batches never sharing one.
func TestBatchTokenUnique(t *testing.T) {
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool, workers*per)
	addr := stubServer(t, func(line []byte) {
		_, tok, _ := strings.Cut(strings.TrimSpace(string(line)), " id=")
		mu.Lock()
		defer mu.Unlock()
		if seen[tok] {
			t.Errorf("duplicate token %q", tok)
		}
		seen[tok] = true
	})
	ps := make([]Point, 5)
	for i := range ps {
		ps[i] = Point{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: int64(i)}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				if err := c.WriteBatchContext(context.Background(), ps); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != workers*per {
		t.Fatalf("%d distinct tokens, want %d", len(seen), workers*per)
	}
	for tok := range seen {
		if !strings.HasPrefix(tok, tokenNonce+"-") {
			t.Fatalf("token %q lacks the process nonce %q", tok, tokenNonce)
		}
	}
}
