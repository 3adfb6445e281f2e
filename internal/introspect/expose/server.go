package expose

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// Check is one readiness probe: Probe returns nil when the named
// subsystem can do useful work. A failing probe flips /readyz to 503
// with the failure rendered per check.
type Check struct {
	Name  string
	Probe func() error
}

// Server is the observability-plane HTTP endpoint: /metrics (OpenMetrics
// text), /healthz (liveness), /readyz (readiness via checks),
// /debug/vars (expvar-style JSON) and /logs (the structured log ring).
// Everything it serves is fixed by NewServer.
type Server struct {
	in     *introspect.Introspector
	labels map[string]string
	logs   *logbuf.Logger
	checks []Check

	conns *introspect.Gauge // in's runtime.conns

	srv *http.Server
	ln  net.Listener
}

// NewServer builds the plane over in's registry, whose samples carry the
// constant labels (e.g. process="daemon"), the log ring served at /logs
// and the readiness checks behind /readyz. Every /metrics and
// /debug/vars render samples the runtime into in first, and the live
// connection count is kept in in's runtime.conns gauge.
func NewServer(in *introspect.Introspector, labels map[string]string, logs *logbuf.Logger, checks ...Check) *Server {
	return &Server{in: in, labels: labels, logs: logs, checks: checks,
		conns: in.Metrics().Gauge(GaugeConns)}
}

// Handler returns the route table; useful for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/logs", s.handleLogs)
	return mux
}

// Listen binds addr and serves in the background until Close. The bound
// address (useful with ":0") is available from Addr.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("expose: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ConnState:         s.connState,
	}
	s.ln, s.srv = ln, srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops serving. Safe to call multiple times or before Listen;
// like Listen it is not for concurrent use, and a later Listen serves
// again.
func (s *Server) Close() error {
	srv := s.srv
	s.srv, s.ln = nil, nil
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// connState keeps the live-connection count in the runtime.conns gauge.
func (s *Server) connState(_ net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		s.conns.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.conns.Add(-1)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	CollectRuntime(s.in)
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = WriteOpenMetrics(w, s.in.Snapshot(), s.labels)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type failure struct{ name, err string }
	var failures []failure
	for _, c := range s.checks {
		if err := c.Probe(); err != nil {
			failures = append(failures, failure{c.Name, err.Error()})
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(failures) == 0 {
		fmt.Fprintln(w, "ready")
		return
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].name < failures[j].name })
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
	for _, f := range failures {
		fmt.Fprintf(w, "%s: %s\n", f.name, f.err)
	}
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	CollectRuntime(s.in)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = EncodeVars(w, s.in.Snapshot())
}

// LogRecordJSON is the wire shape of one /logs record.
type LogRecordJSON struct {
	Seq       uint64            `json:"seq"`
	Time      string            `json:"time"`
	Level     string            `json:"level"`
	Component string            `json:"component,omitempty"`
	Msg       string            `json:"msg"`
	Trace     string            `json:"trace,omitempty"`
	Span      string            `json:"span,omitempty"`
	Fields    map[string]string `json:"fields,omitempty"`
}

// RecordJSON converts a ring record to its wire shape.
func RecordJSON(rec logbuf.Record) LogRecordJSON {
	out := LogRecordJSON{
		Seq:       rec.Seq,
		Time:      rec.Time.UTC().Format(time.RFC3339Nano),
		Level:     rec.Level.String(),
		Component: rec.Component,
		Msg:       rec.Msg,
	}
	if !rec.Trace.IsZero() {
		out.Trace = rec.Trace.String()
		out.Span = fmt.Sprintf("%016x", rec.Span)
	}
	if len(rec.Fields) > 0 {
		out.Fields = make(map[string]string, len(rec.Fields))
		for _, f := range rec.Fields {
			out.Fields[f.Key] = f.Value
		}
	}
	return out
}

// ParseLogQuery builds a ring query from /logs-style parameters; the
// CLI shares it so `pmove logs` filters exactly like the endpoint.
// Unknown level names and malformed trace ids are reported as errors.
func ParseLogQuery(level, trace, component, limit string) (logbuf.Query, error) {
	var q logbuf.Query
	if level != "" {
		lv, ok := logbuf.ParseLevel(level)
		if !ok {
			return q, fmt.Errorf("unknown level %q", level)
		}
		q.MinLevel = lv
	}
	if trace != "" {
		id, ok := introspect.ParseTraceID(trace)
		if !ok {
			return q, fmt.Errorf("malformed trace id %q (want 32 hex digits)", trace)
		}
		q.Trace = id
	}
	q.Component = component
	if limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", limit)
		}
		q.Limit = n
	}
	return q, nil
}

func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q, err := ParseLogQuery(params.Get("level"), params.Get("trace"),
		params.Get("component"), params.Get("limit"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs := s.logs.Filter(q)
	out := make([]LogRecordJSON, 0, len(recs))
	for _, rec := range recs {
		out = append(out, RecordJSON(rec))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
