package expose

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

func newTestServer(t *testing.T, checks ...Check) (*Server, *introspect.Introspector, *logbuf.Logger) {
	t.Helper()
	in := introspect.New(introspect.WithProcess("test"))
	logs := logbuf.New(64)
	return NewServer(in, map[string]string{"process": "test"}, logs, checks...), in, logs
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	s, in, _ := newTestServer(t)
	in.Metrics().Counter("op.probe.total").Add(2)

	code, body := get(t, s.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE pmove_self_op_probe counter",
		`pmove_self_op_probe_total{process="test"} 2`,
		"pmove_self_runtime_goroutines",
		"pmove_self_runtime_heap_alloc_bytes",
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatal("/metrics must terminate with # EOF")
	}
	// A plane over no introspector serves an empty exposition.
	if code, body := get(t, NewServer(nil, nil, nil).Handler(), "/metrics"); code != http.StatusOK || body != "# EOF\n" {
		t.Fatalf("nil-introspector /metrics = %d %q", code, body)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	var failing atomic.Bool
	s, _, _ := newTestServer(t, Check{Name: "telemetry-sink", Probe: func() error {
		if failing.Load() {
			return errors.New("breaker open")
		}
		return nil
	}})
	h := s.Handler()

	if code, body := get(t, h, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, h, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	failing.Store(true)
	code, body := get(t, h, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz under failure = %d", code)
	}
	if !strings.Contains(body, "telemetry-sink: breaker open") {
		t.Fatalf("/readyz body %q lacks failing check", body)
	}
	failing.Store(false)
	if code, _ := get(t, h, "/readyz"); code != 200 {
		t.Fatalf("/readyz did not recover: %d", code)
	}
}

func TestVarsEndpoint(t *testing.T) {
	s, in, _ := newTestServer(t)
	in.Metrics().Gauge("ops.inflight").Set(3)
	code, body := get(t, s.Handler(), "/debug/vars")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var m map[string]VarGauge
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if g := m["pmove.self.ops.inflight"]; g.Kind != "gauge" || g.Value != 3 {
		t.Fatalf("vars gauge = %+v", g)
	}
	// The render samples the runtime first, as /metrics does.
	if g := m["pmove.self."+GaugeGoroutines]; g.Value <= 0 {
		t.Fatalf("vars goroutine gauge = %+v", g)
	}
}

func TestLogsEndpoint(t *testing.T) {
	s, _, logs := newTestServer(t)
	tr := introspect.TraceID{Hi: 0xabc, Lo: 0xdef}
	ctx := introspect.ContextWithSpanContext(context.Background(),
		introspect.SpanContext{Trace: tr, Span: 9, Sampled: true})
	logs.With("tsdb.server").Warn(ctx, "slow op", "cmd", "WRITEB")
	logs.With("transport.tsdb").Info(context.Background(), "retry")

	h := s.Handler()
	code, body := get(t, h, "/logs")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var recs []LogRecordJSON
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Trace != tr.String() || recs[0].Fields["cmd"] != "WRITEB" {
		t.Fatalf("record = %+v", recs[0])
	}

	_, body = get(t, h, "/logs?trace="+tr.String())
	_ = json.Unmarshal([]byte(body), &recs)
	if len(recs) != 1 || recs[0].Msg != "slow op" {
		t.Fatalf("trace filter = %+v", recs)
	}
	_, body = get(t, h, "/logs?level=warn&component=tsdb.server&limit=5")
	_ = json.Unmarshal([]byte(body), &recs)
	if len(recs) != 1 {
		t.Fatalf("combined filter = %+v", recs)
	}
	if code, _ := get(t, h, "/logs?level=loud"); code != http.StatusBadRequest {
		t.Fatalf("bad level accepted: %d", code)
	}
	if code, _ := get(t, h, "/logs?trace=xyz"); code != http.StatusBadRequest {
		t.Fatalf("bad trace accepted: %d", code)
	}
	if code, _ := get(t, h, "/logs?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: %d", code)
	}
}

func TestListenServesOverRealSocket(t *testing.T) {
	s, _, _ := newTestServer(t)
	if err := s.Close(); err != nil {
		t.Fatalf("Close before Listen: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "pmove_self_runtime_goroutines") {
		t.Fatal("scrape missing runtime gauges")
	}
	// The scrape's own connection is open while it is served.
	if !strings.Contains(string(body), `pmove_self_runtime_conns{process="test"} 1`) {
		t.Fatalf("scrape missing its own connection in the conns gauge:\n%s", body)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
