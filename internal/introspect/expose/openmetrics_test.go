package expose

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmove/internal/introspect"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fixtureLabels are the constant labels the fixture is rendered with.
var fixtureLabels = map[string]string{"process": "daemon"}

// fixtureSnapshot builds a registry covering every metric kind, counter
// suffix handling, and histogram geometry.
func fixtureSnapshot() introspect.Snapshot {
	reg := introspect.NewRegistry()
	reg.Counter("op.probe.total").Add(5)
	reg.Counter("op.probe.errors").Add(1) // no .total suffix: sample still gets _total
	reg.Gauge("ops.inflight").Set(2)
	reg.Gauge("journal.fill").Set(0.375)
	h := reg.Histogram("op.probe.seconds", 0.001, 0.01, 0.1)
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(0.002)
	h.Observe(5) // lands in +Inf
	return reg.Snapshot()
}

func TestOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, fixtureSnapshot(), fixtureLabels); err != nil {
		t.Fatal(err)
	}
	golden(t, "openmetrics_basic", buf.Bytes())
}

func TestOpenMetricsEscapingAndOrdering(t *testing.T) {
	reg := introspect.NewRegistry()
	reg.Gauge("weird metric-name").Set(1)
	labels := map[string]string{
		"zeta":    "last-key-sorts-first-no",
		"alpha":   `quote " backslash \ newline` + "\n" + `end`,
		"bad key": "sanitized",
	}
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot(), labels); err != nil {
		t.Fatal(err)
	}
	golden(t, "openmetrics_escaping", buf.Bytes())
}

// TestOpenMetricsCollidingNamesShareFamily: a counter already named
// *.total renders under its stem with one _total suffix, and of two
// registry names that sanitize to the same family only the first in
// name order renders, under one HELP/TYPE header and as one series.
func TestOpenMetricsCollidingNamesShareFamily(t *testing.T) {
	reg := introspect.NewRegistry()
	reg.Counter("requests.total").Add(3)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot(), fixtureLabels); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pmove_self_requests pmove.self.requests.total
# TYPE pmove_self_requests counter
pmove_self_requests_total{process="daemon"} 3
# EOF
`
	if got := buf.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}

	reg.Counter("requests").Add(7)
	buf.Reset()
	if err := WriteOpenMetrics(&buf, reg.Snapshot(), fixtureLabels); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE pmove_self_requests counter\n"); n != 1 {
		t.Fatalf("%d TYPE headers for one family:\n%s", n, buf.String())
	}
	if n := strings.Count(buf.String(), `pmove_self_requests_total{process="daemon"} `); n != 1 {
		t.Fatalf("%d samples of one series, want 1:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), `pmove_self_requests_total{process="daemon"} 7`+"\n") {
		t.Fatalf("the family's sample is not the first name's (requests, 7):\n%s", buf.String())
	}
}

func TestVarsEncoder(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeVars(&buf, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden(t, "vars_basic", buf.Bytes())

	// The encoding must round-trip as JSON and carry cumulative buckets.
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("vars output is not valid JSON: %v", err)
	}
	var hist VarHistogram
	if err := json.Unmarshal(decoded["pmove.self.op.probe.seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Buckets["+Inf"] != hist.Count {
		t.Fatalf("+Inf bucket %d != count %d", hist.Buckets["+Inf"], hist.Count)
	}
	if hist.Buckets["0.01"] != 3 {
		t.Fatalf("cumulative 0.01 bucket = %d, want 3", hist.Buckets["0.01"])
	}
}

func TestCumulativeAndBounds(t *testing.T) {
	reg := introspect.NewRegistry()
	h := reg.Histogram("h", 1, 2, 3)
	if got := h.Bounds(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Bounds = %v", got)
	}
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	m, _ := reg.Snapshot().Get("h")
	cum := m.Cumulative()
	if len(cum) != 4 {
		t.Fatalf("Cumulative len = %d, want 4 (3 bounds + +Inf)", len(cum))
	}
	wantCounts := []uint64{1, 2, 2, 3}
	for i, w := range wantCounts {
		if cum[i].Count != w {
			t.Fatalf("cum[%d] = %d, want %d", i, cum[i].Count, w)
		}
	}
	var nilH *introspect.Histogram
	if nilH.Bounds() != nil {
		t.Fatal("nil Histogram.Bounds should be nil")
	}
	if (introspect.Metric{Kind: introspect.KindGauge}).Cumulative() != nil {
		t.Fatal("gauge Cumulative should be nil")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"pmove.self.runtime.goroutines": "pmove_self_runtime_goroutines",
		"a b/c-d":                       "a_b_c_d",
		"9leading":                      "_leading",
		"ok_name:x":                     "ok_name:x",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Fatalf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
