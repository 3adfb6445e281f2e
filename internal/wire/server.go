// Package wire is the line-framed TCP server skeleton the tsdb server
// runs on: listener, accept loop, tracked connections, the
// per-connection scanner and reply buffer, the tracing/logging settings,
// the per-op log record and drain-then-flush on Close. A protocol plugs
// in as a Proto — what it does with a request line is its own business;
// nothing here knows a verb, a span name or a reply text.
package wire

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

// Proto is what a protocol brings to the skeleton.
type Proto struct {
	Name    string // prefixes Listen's error, e.g. "tsdb"
	OpKey   string // log field that names the op, e.g. "cmd"
	MaxLine int    // scanner cap; a longer line ends the session with an ErrorLine
	// Handle serves the request whose line c.Sc holds, writing the reply
	// to c.W (flushed when it returns). False hangs up after the flush:
	// the stream can no longer be trusted to be in sync.
	Handle func(c *Conn) bool
	// ErrorLine renders msg as the protocol's one-line error reply.
	ErrorLine func(w *bufio.Writer, msg string)
	// Flush makes everything the handlers accepted durable; Close calls
	// it once they have all returned.
	Flush func() error
}

// Server serves one Proto on one listener.
type Server struct {
	p Proto

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	in     *introspect.Introspector
	log    *logbuf.Logger
	slow   time.Duration
}

// NewServer returns a server that is not yet listening.
func NewServer(p Proto) *Server {
	return &Server{p: p, conns: map[net.Conn]struct{}{}}
}

// SetTracing attaches the introspector whose tracer records the
// protocol's server-side spans: a request carrying a traceparent joins
// the caller's distributed trace, an untagged one opens a local root.
// Nil (the default) disables server tracing.
func (s *Server) SetTracing(in *introspect.Introspector) {
	s.mu.Lock()
	s.in = in
	s.mu.Unlock()
}

// SetLogger attaches a structured log ring (conventionally a
// "<name>.server" component child). Ops slower than slowThreshold emit a
// warn record carrying the op's wire traceparent, so a slow server-side
// op joins the client span that carried it on the same 128-bit trace
// id; a zero threshold logs every op, a negative one disables the
// slow-op path (failed ops are still logged). A nil logger disables
// everything.
func (s *Server) SetLogger(lg *logbuf.Logger, slowThreshold time.Duration) {
	s.mu.Lock()
	s.log = lg
	s.slow = slowThreshold
	s.mu.Unlock()
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.p.Name, err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting on ln, which Close will close, and returns.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if s.track(conn) {
				go s.handle(conn)
			}
		}
	}()
}

// track registers an accepted connection and its handler — unless Close
// has begun. Accept can hand over a connection after Close swept the
// set; served, it would never be closed and its handler would hold Close
// until the peer left, so it is closed instead.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := &Conn{Sc: bufio.NewScanner(conn), W: bufio.NewWriter(conn), key: s.p.OpKey}
	c.Sc.Buffer(make([]byte, 0, 64<<10), s.p.MaxLine)
	for c.Sc.Scan() {
		s.mu.Lock()
		c.In, c.log, c.slow = s.in, s.log, s.slow
		s.mu.Unlock()
		if !s.p.Handle(c) || c.W.Flush() != nil {
			break
		}
	}
	// A scanner error (most commonly a line over the cap) is answered
	// before hanging up, whichever verb was reading when it struck, so the
	// client sees a protocol error instead of a bare EOF.
	if err := c.Sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		s.p.ErrorLine(c.W, "line too long")
	} else if err != nil {
		s.p.ErrorLine(c.W, err.Error())
	}
	c.W.Flush()
}

// Close stops the server: the listener and idle connections are torn
// down, every in-flight handler drains (an accepted request finishes
// before the store is considered final), then the Proto's Flush runs —
// so a graceful shutdown never loses an acknowledged op, whatever the
// fsync policy.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.p.Flush()
}

// Conn is one connection as a Proto's Handle sees it. Sc holds the
// request line (a verb with a body scans on); W takes the reply. In is
// the request's tracer: the settings are read once per request.
type Conn struct {
	Sc *bufio.Scanner
	W  *bufio.Writer
	In *introspect.Introspector // nil when the server is untraced

	key  string
	log  *logbuf.Logger
	slow time.Duration
}

// LogOp emits the request's structured record: errors always, slow ops
// when the threshold is met, "ping" never. sctx is the span-carrying
// context (the record's trace identity); wireCtx is the frame's context,
// whose traceparent ties a slow-op record back to the bytes on the wire;
// arrivalNanos is when the verb took the frame to have arrived (where it
// backdates its spans to); extra key/value pairs join a slow-op record.
func (c *Conn) LogOp(sctx, wireCtx context.Context, op string, arrivalNanos int64, err error, extra ...string) {
	if c.log == nil || op == "ping" {
		return
	}
	elapsed := time.Duration(time.Now().UnixNano() - arrivalNanos)
	if err != nil {
		c.log.Error(sctx, "op failed", c.key, op, "duration", elapsed.String(), "error", err.Error())
		return
	}
	if c.slow < 0 || elapsed < c.slow {
		return
	}
	kv := append([]string{c.key, op, "duration", elapsed.String()}, extra...)
	if tp := introspect.TraceparentFromContext(wireCtx); tp != "" {
		kv = append(kv, "traceparent", tp)
	}
	c.log.Warn(sctx, "slow op", kv...)
}
