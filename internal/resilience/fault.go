package resilience

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Faults is the deterministic fault plan a Proxy applies. Counts are
// preferred over probabilities where exact repeatability matters; the
// probabilistic knobs draw from the seeded RNG so a given seed still
// replays the same schedule.
type Faults struct {
	// Latency is added before each forwarded chunk; LatencyJitter adds up
	// to that much extra, seeded.
	Latency       time.Duration
	LatencyJitter time.Duration
	// SlowChunk > 0 trickles traffic in chunks of at most this many
	// bytes (a jittered slow read/write).
	SlowChunk int
	// ResetAfterBytes > 0 resets a connection once it has carried that
	// many bytes in either direction — the mid-stream reset.
	ResetAfterBytes int64
	// FlapFirst closes the first N accepted connections immediately
	// (deterministic flappy accept); FlapProb flaps later accepts with
	// this probability.
	FlapFirst int
	FlapProb  float64
}

// Proxy interposes the fault plan between clients and a backend server:
// clients dial the proxy's address, the proxy pipes bytes to the real
// tsdb listener and applies the plan to every chunk. The server's
// logic is untouched — exactly the interposition the chaos suite needs.
// Partition and Heal flip a full network partition at runtime: accepted
// connections black-hole (reads stall until the client's deadline fires)
// and no new backend connections are made.
type Proxy struct {
	backend string
	faults  Faults // fixed at construction

	mu          sync.Mutex
	ln          net.Listener
	rng         *RNG
	partitioned bool
	conns       map[net.Conn]bool
	accepted    int
	wg          sync.WaitGroup
	closed      bool
}

// NewProxy builds a proxy in front of backend (host:port) with a seeded
// fault plan.
func NewProxy(backend string, faults Faults, seed uint64) *Proxy {
	return &Proxy{backend: backend, faults: faults, rng: NewRNG(seed), conns: map[net.Conn]bool{}}
}

// Listen starts the proxy on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address clients should dial.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("resilience: proxy listen: %w", err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the proxy's bound address.
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Partition cuts the network: existing connections stall, new ones are
// accepted but never reach the backend.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.mu.Unlock()
}

// Heal ends the partition for traffic pumped after this call.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// DropConns force-closes every live proxied connection — an on-demand
// mid-stream reset.
func (p *Proxy) DropConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the proxy and its connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

func (p *Proxy) isPartitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[c] = true
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.accepted++
		flap := p.accepted <= p.faults.FlapFirst ||
			(p.faults.FlapProb > 0 && p.rng.Float64() < p.faults.FlapProb)
		partitioned := p.partitioned
		p.mu.Unlock()
		if flap {
			conn.Close()
			continue
		}
		if partitioned {
			// Black hole: keep the conn so client writes land in kernel
			// buffers while reads stall until the client's deadline.
			p.track(conn)
			continue
		}
		up, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
		if err != nil {
			conn.Close()
			continue
		}
		p.track(conn)
		p.track(up)
		var bytes int64 // shared both-direction byte budget for resets
		var once sync.Once
		kill := func() {
			once.Do(func() {
				conn.Close()
				up.Close()
			})
		}
		p.wg.Add(2)
		go p.pump(up, conn, &bytes, kill)
		go p.pump(conn, up, &bytes, kill)
	}
}

// pump forwards src → dst applying the fault plan.
func (p *Proxy) pump(dst, src net.Conn, total *int64, kill func()) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer kill()
	f := p.faults
	buf := make([]byte, 32<<10)
	chunk := len(buf)
	if f.SlowChunk > 0 && f.SlowChunk < chunk {
		chunk = f.SlowChunk
	}
	for {
		n, err := src.Read(buf[:chunk])
		if n > 0 {
			if d := p.chunkDelay(f); d > 0 {
				time.Sleep(d)
			}
			if p.isPartitioned() {
				// Black hole: bytes captured by the partition are dropped,
				// never delivered late. A healed link that replayed a
				// request the client already timed out and abandoned would
				// execute it behind the client's back — the nondeterminism
				// the desync tests exist to rule out.
				if err != nil {
					return
				}
				continue
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			if f.ResetAfterBytes > 0 {
				p.mu.Lock()
				*total += int64(n)
				tripped := *total >= f.ResetAfterBytes
				p.mu.Unlock()
				if tripped {
					return // kill() resets both halves mid-stream
				}
			}
		}
		if err != nil {
			return // EOF or reset either way ends the pump
		}
	}
}

func (p *Proxy) chunkDelay(f Faults) time.Duration {
	d := f.Latency
	if f.LatencyJitter > 0 {
		p.mu.Lock()
		d += time.Duration(p.rng.Float64() * float64(f.LatencyJitter))
		p.mu.Unlock()
	}
	return d
}
