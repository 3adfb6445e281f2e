package docdb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/resilience"
	"pmove/internal/wire"
)

// request is the wire format of the Server protocol: one JSON object per
// line. Traceparent is the optional distributed-trace context tag —
// omitted by pre-tracing clients, ignored by pre-tracing servers (both
// directions stay backward compatible).
type request struct {
	Op          string  `json:"op"` // insert | upsert | find | get | delete | count | collections | ping
	Collection  string  `json:"collection,omitempty"`
	Doc         Doc     `json:"doc,omitempty"`
	Filter      *Filter `json:"filter,omitempty"`
	ID          string  `json:"id,omitempty"`
	Traceparent string  `json:"traceparent,omitempty"`
}

type response struct {
	OK    bool     `json:"ok"`
	Error string   `json:"error,omitempty"`
	ID    string   `json:"id,omitempty"`
	Docs  []Doc    `json:"docs,omitempty"`
	Count int      `json:"count,omitempty"`
	Names []string `json:"names,omitempty"`
}

// Server exposes a DB over TCP, one JSON request/response per line.
type Server struct {
	*skeleton
	db *DB
}

// skeleton names wire.Server so that embedding it promotes Listen, Serve,
// Close, SetTracing and SetLogger without exporting a Server.Server field.
type skeleton = wire.Server

// NewServer wraps a DB. Traced, a request records docdb.server.<op> with
// parse/queue/exec children; ping never logs.
func NewServer(db *DB) *Server {
	s := &Server{db: db}
	s.skeleton = wire.NewServer(wire.Proto{
		Name: "docdb", OpKey: "op", MaxLine: 16 << 20,
		Handle:    s.serve,
		ErrorLine: func(w *bufio.Writer, msg string) { reply(w, response{Error: msg}) },
		// An accepted mutation is in the WAL; one sync makes the accepted
		// prefix durable whatever the fsync policy.
		Flush: db.Sync,
	})
	return s
}

// reply writes one response line; false when it cannot be rendered.
func reply(w *bufio.Writer, resp response) bool {
	return json.NewEncoder(w).Encode(resp) == nil
}

// serve decodes one request line, dispatches it and answers.
func (s *Server) serve(c *wire.Conn) bool {
	arrival := time.Now().UnixNano()
	ctx := context.Background()
	var req request
	if err := json.Unmarshal(c.Sc.Bytes(), &req); err != nil {
		c.LogOp(ctx, ctx, "invalid", arrival, err)
		return reply(c.W, response{Error: err.Error()})
	}
	// The trace context rides inside the JSON we just decoded, so the
	// op and parse spans are backdated to frame arrival — decode time
	// is inside the trace even though the tag is read after it.
	if remote, ok := introspect.ParseTraceparent(req.Traceparent); ok {
		ctx = introspect.ContextWithSpanContext(ctx, remote)
	}
	name := strings.ToLower(req.Op)
	octx, op := c.In.StartSpanAt(ctx, "docdb.server."+name, arrival)
	_, ps := c.In.StartSpanAt(octx, "docdb.server.parse", arrival)
	ps.End(nil)
	_, qs := c.In.StartSpan(octx, "docdb.server.queue")
	qs.End(nil)
	_, is := c.In.StartSpan(octx, "docdb.server.exec")
	resp := s.dispatch(&req)
	var derr error
	if resp.Error != "" {
		derr = errors.New(resp.Error)
	}
	is.End(derr)
	op.End(derr)
	c.LogOp(octx, ctx, name, arrival, derr)
	return reply(c.W, resp)
}

func (s *Server) dispatch(req *request) response {
	col := func() *Collection { return s.db.Collection(req.Collection) }
	switch strings.ToLower(req.Op) {
	case "insert":
		id, err := col().Insert(req.Doc)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, ID: id}
	case "upsert":
		id, err := col().Upsert(req.Doc)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, ID: id}
	case "find":
		return response{OK: true, Docs: col().Find(req.Filter)}
	case "get":
		d, ok := col().Get(req.ID)
		if !ok {
			return response{Error: fmt.Sprintf("no document %q", req.ID)}
		}
		return response{OK: true, Docs: []Doc{d}}
	case "delete":
		n, err := col().Delete(req.Filter)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, Count: n}
	case "count":
		return response{OK: true, Count: col().Count(req.Filter)}
	case "collections":
		return response{OK: true, Names: s.db.Collections()}
	case "ping":
		// Liveness probe used by the resilient client's circuit breaker.
		return response{OK: true}
	}
	return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

// Client talks to a Server through the shared resilient transport:
// per-op deadlines, retried reconnects with backoff, and a circuit
// breaker probed via the ping op. See tsdb.Client for the semantics —
// server-side rejections are never retried, I/O failures drop the wire so
// a half-read response cannot desynchronise later calls.
type Client struct {
	tr *resilience.Transport
}

// pingResync verifies a fresh connection answers a ping in sync.
func pingResync(w *resilience.Wire) error {
	if _, err := fmt.Fprintln(w.Conn, `{"op":"ping"}`); err != nil {
		return err
	}
	line, err := w.R.ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("docdb: bad ping response: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("docdb: ping rejected: %s", resp.Error)
	}
	return nil
}

// Dial connects to a Server with the default resilience policy; the
// initial connect is a single attempt so a bad address fails fast.
func Dial(addr string) (*Client, error) {
	return DialPolicy(addr, resilience.DefaultPolicy())
}

// DialPolicy connects with an explicit resilience policy.
func DialPolicy(addr string, pol resilience.Policy) (*Client, error) {
	c := &Client{tr: resilience.NewTransport(addr, pol, pingResync)}
	if err := c.tr.Connect(); err != nil {
		c.tr.Close()
		return nil, fmt.Errorf("docdb: dial %s: %w", addr, err)
	}
	return c, nil
}

// Stats exposes the transport's fault counters.
func (c *Client) Stats() resilience.TransportStats { return c.tr.Stats() }

// Transport exposes the underlying resilient transport for
// self-observability wiring (Transport.SetIntrospection).
func (c *Client) Transport() *resilience.Transport { return c.tr }

// PingContext checks liveness end to end.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.roundTrip(ctx, request{Op: "ping"})
	return err
}

func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	var resp response
	err := c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		// Marshalled per attempt: the traceparent names the attempt span,
		// so a retried request parents its server spans under the retry
		// that actually carried it.
		req.Traceparent = introspect.TraceparentFromContext(ctx)
		b, err := json.Marshal(req)
		if err != nil {
			return resilience.Permanent(err)
		}
		if _, err := fmt.Fprintf(w.Conn, "%s\n", b); err != nil {
			return err
		}
		line, err := w.R.ReadBytes('\n')
		if err != nil {
			return err
		}
		resp = response{}
		if err := json.Unmarshal(line, &resp); err != nil {
			// Full line read — in sync; malformed bodies do not retry.
			return resilience.Permanent(fmt.Errorf("docdb: bad response: %w", err))
		}
		if resp.Error != "" {
			return resilience.Permanent(fmt.Errorf("docdb: %s", resp.Error))
		}
		return nil
	})
	return resp, err
}

// InsertContext stores a document remotely and returns its id.
func (c *Client) InsertContext(ctx context.Context, collection string, d Doc) (string, error) {
	resp, err := c.roundTrip(ctx, request{Op: "insert", Collection: collection, Doc: d})
	return resp.ID, err
}

// UpsertContext inserts or replaces a document remotely by its _id.
func (c *Client) UpsertContext(ctx context.Context, collection string, d Doc) (string, error) {
	resp, err := c.roundTrip(ctx, request{Op: "upsert", Collection: collection, Doc: d})
	return resp.ID, err
}

// FindContext queries a collection remotely.
func (c *Client) FindContext(ctx context.Context, collection string, f *Filter) ([]Doc, error) {
	resp, err := c.roundTrip(ctx, request{Op: "find", Collection: collection, Filter: f})
	return resp.Docs, err
}

// GetContext fetches one document by id.
func (c *Client) GetContext(ctx context.Context, collection, id string) (Doc, error) {
	resp, err := c.roundTrip(ctx, request{Op: "get", Collection: collection, ID: id})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) == 0 {
		return nil, fmt.Errorf("docdb: no document %q", id)
	}
	return resp.Docs[0], nil
}

// CountContext counts matching documents.
func (c *Client) CountContext(ctx context.Context, collection string, f *Filter) (int, error) {
	resp, err := c.roundTrip(ctx, request{Op: "count", Collection: collection, Filter: f})
	return resp.Count, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.tr.Close() }
