package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pmove/internal/introspect/expose"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonExposePlane stands up a daemon with WithExpose, runs a real
// monitor session, and scrapes every endpoint of the observability
// plane over the socket.
func TestDaemonExposePlane(t *testing.T) {
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded"}),
		WithExpose("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Introspection == nil {
		t.Fatal("WithExpose should auto-enable introspection")
	}
	if d.Logs == nil {
		t.Fatal("WithExpose should enable the log ring")
	}
	addr := d.ExposeAddr()
	if addr == "" {
		t.Fatal("ExposeAddr empty")
	}
	base := "http://" + addr

	sys := topo.MustPreset(topo.PresetICL)
	if _, err := d.AttachTarget(sys, machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProbeContext(context.Background(), "icl"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MonitorContext(context.Background(), MonitorRequest{
		Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 3,
	}); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	// Every registry metric family must be present: spot-check one of
	// each origin (op counters, telemetry, runtime gauges) and the
	// histogram sample lines.
	for _, want := range []string{
		"pmove_self_op_monitor_total",
		"pmove_self_telemetry_points_expected_total",
		"pmove_self_runtime_goroutines",
		"pmove_self_op_monitor_seconds_bucket",
		`le="+Inf"`,
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// The exposition covers the whole registry: every snapshot metric's
	// sanitized family name appears.
	for _, m := range d.SelfSnapshot().Metrics {
		fam := "pmove_self_" + strings.NewReplacer(".", "_", "-", "_").Replace(m.Name)
		fam = strings.TrimSuffix(fam, "_total")
		if !strings.Contains(body, fam) {
			t.Fatalf("/metrics missing registry metric %s (family %s)", m.Name, fam)
		}
	}

	if code, body := httpGet(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := httpGet(t, base+"/readyz"); code != 200 {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	code, body = httpGet(t, base+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars invalid JSON: %v", err)
	}
	if _, ok := vars["pmove.self.op.monitor.total"]; !ok {
		t.Fatalf("/debug/vars missing op counter; keys=%d", len(vars))
	}

	code, body = httpGet(t, base+"/logs?component=daemon")
	if code != 200 {
		t.Fatalf("/logs status %d", code)
	}
	var recs []expose.LogRecordJSON
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/logs invalid JSON: %v", err)
	}
	found := false
	for _, r := range recs {
		if r.Msg == "op complete" && r.Fields["op"] == "monitor" {
			found = true
			if r.Trace == "" {
				t.Fatal("daemon op record lacks trace id")
			}
		}
	}
	if !found {
		t.Fatalf("no monitor op record in /logs: %+v", recs)
	}
}

// TestExposeAddrLifecycle covers the accessor before/after Close and a
// bind failure surfacing from NewWith.
func TestExposeAddrLifecycle(t *testing.T) {
	d, err := NewWith(WithIntrospection())
	if err != nil {
		t.Fatal(err)
	}
	if d.ExposeAddr() != "" {
		t.Fatal("ExposeAddr should be empty without WithExpose")
	}
	if d.Logs != nil {
		t.Fatal("the log ring should exist only with the plane")
	}
	d.Close()

	d2, err := NewWith(WithExpose("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	addr := d2.ExposeAddr()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("expose server still serving after Close")
	}

	if _, err := NewWith(WithExpose("256.0.0.1:bogus")); err == nil {
		t.Fatal("bogus expose address should fail NewWith")
	}
}

// TestExposeExportsRuntimeUnscraped: a plane nobody scrapes still
// samples the runtime into the self-export of each op, the daemon keeps
// no goroutine of its own beside net/http's serve loop, and Close leaves
// none behind.
func TestExposeExportsRuntimeUnscraped(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded"}),
		WithExpose("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AttachTarget(topo.MustPreset(topo.PresetICL), machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProbeContext(context.Background(), "icl"); err != nil {
		t.Fatal(err)
	}
	res, err := d.TS.ExecuteContext(context.Background(), tsdb.QueryRequest{
		Statement: `SELECT "_value" FROM "pmove_self_runtime_goroutines" WHERE "tag" = 'self'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Rows[len(res.Rows)-1].Values["_value"] <= 0 {
		t.Fatalf("runtime goroutines not exported after one op: %+v", res.Rows)
	}
	// While the plane is up and unscraped, net/http's serve goroutine is
	// the only one the daemon keeps; any the op started end shortly.
	settle := func(limit int) int {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	if n := settle(before + 1); n > before+1 {
		t.Fatalf("%d goroutines with the plane up, %d before NewWith", n, before)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The serve goroutine ends shortly after its listener closes.
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before NewWith", n, before)
	}
}
