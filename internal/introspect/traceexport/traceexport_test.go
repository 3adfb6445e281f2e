package traceexport

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

	"pmove/internal/introspect"
	"pmove/internal/resilience"
	"pmove/internal/tsdb"
)

func testPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  time.Second,
		ReadTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		MaxRetries:   2,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Breaker:      resilience.BreakerConfig{Threshold: 50, Cooldown: 10 * time.Millisecond},
		Seed:         11,
	}
}

// tracedTSDB starts a tsdb server with its own process-labeled tracer.
func tracedTSDB(t *testing.T) (*tsdb.Server, *introspect.Introspector, string) {
	t.Helper()
	srv := tsdb.NewServer(tsdb.New())
	in := introspect.New(introspect.WithProcess("tsdb-server"), introspect.WithSampling(1, 21))
	srv.SetTracing(in)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, in, addr
}

// TestAssembleAndAttribute drives real WRITEB/QUERY ops through a traced
// client and server, assembles the two rings into one trace, and checks
// the tree shape and that per-hop attribution partitions the measured
// end-to-end wire time (the ≤5% acceptance criterion, exact here).
func TestAssembleAndAttribute(t *testing.T) {
	_, serverIn, addr := tracedTSDB(t)
	clientIn := introspect.New(introspect.WithProcess("daemon"), introspect.WithSampling(1, 31))
	cl, err := tsdb.DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIntrospection(clientIn, "tsdb")

	ctx, root := clientIn.StartSpan(context.Background(), "test.op")
	for i := 0; i < 3; i++ {
		p := tsdb.Point{
			Measurement: "cpu",
			Tags:        map[string]string{"host": "a"},
			Fields:      map[string]float64{"usage": float64(i)},
			Time:        int64(i + 1),
		}
		if err := cl.WriteBatchContext(ctx, []tsdb.Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.QueryContext(ctx, "SELECT usage FROM cpu"); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	col := NewCollector()
	col.Add("daemon", clientIn.Tracer())
	col.Add("tsdb-server", serverIn.Tracer())
	rootSpan, _ := clientIn.Tracer().Find("test.op")
	tr, ok := col.Trace(rootSpan.Trace)
	if !ok {
		t.Fatal("trace not assembled")
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Span.Name != "test.op" {
		t.Fatalf("roots: %+v", tr.Roots)
	}
	if len(tr.Orphans) != 0 {
		t.Fatalf("unexpected orphans: %d", len(tr.Orphans))
	}
	if got := tr.Processes(); len(got) != 2 || got[0] != "daemon" || got[1] != "tsdb-server" {
		t.Fatalf("processes: %v", got)
	}
	// Each write: do -> attempt -> tsdb.server.writeb -> {queue,parse,insert}.
	wn, ok := tr.Find("tsdb.server.writeb")
	if !ok {
		t.Fatal("no server write span in assembled trace")
	}
	if wn.Span.Process != "tsdb-server" {
		t.Fatalf("server span process = %q", wn.Span.Process)
	}
	phases := map[string]bool{}
	for _, ch := range wn.Children {
		phases[ch.Span.Name] = true
	}
	for _, want := range []string{"tsdb.server.queue", "tsdb.server.parse", "tsdb.server.insert"} {
		if !phases[want] {
			t.Errorf("server write missing phase %s (have %v)", want, phases)
		}
	}

	a := Attribute(tr)
	if a.Hops != 4 {
		t.Fatalf("hops = %d, want 4 (3 writes + 1 query)", a.Hops)
	}
	if a.EndToEndSeconds <= 0 {
		t.Fatal("no end-to-end time measured")
	}
	if diff := a.Sum() - a.EndToEndSeconds; diff > 0.05*a.EndToEndSeconds || diff < -0.05*a.EndToEndSeconds {
		t.Fatalf("attribution sum %.9f vs end-to-end %.9f: off by more than 5%%", a.Sum(), a.EndToEndSeconds)
	}
	if a.ServerInsertSecs <= 0 || a.ServerParseSeconds <= 0 {
		t.Errorf("server phases not attributed: %+v", a)
	}
	if a.NetworkSeconds <= 0 {
		t.Errorf("network time not attributed: %+v", a)
	}

	// The registry mirror surfaces the same numbers.
	RecordAttribution(clientIn.Metrics(), a)
	snap := clientIn.Snapshot()
	if v := snap.GaugeValue("trace.hop.wire.seconds"); v != a.EndToEndSeconds {
		t.Errorf("trace.hop.wire.seconds gauge = %v, want %v", v, a.EndToEndSeconds)
	}
}

// TestChromeTraceExport checks the Chrome trace-event JSON is valid and
// carries every span plus per-process metadata.
func TestChromeTraceExport(t *testing.T) {
	_, serverIn, addr := tracedTSDB(t)
	clientIn := introspect.New(introspect.WithProcess("daemon"))
	cl, err := tsdb.DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIntrospection(clientIn, "tsdb")
	ctx, root := clientIn.StartSpan(context.Background(), "test.op")
	if err := cl.WriteBatchContext(ctx, []tsdb.Point{{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	col := NewCollector()
	col.Add("daemon", clientIn.Tracer())
	col.Add("tsdb-server", serverIn.Tracer())
	traces := col.Traces()
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	raw, err := ChromeTrace(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	var meta, complete int
	names := map[string]bool{}
	for _, ev := range decoded.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			names[ev["name"].(string)] = true
			if ev["dur"].(float64) < 0 || ev["ts"].(float64) < 0 {
				t.Errorf("negative ts/dur in %v", ev)
			}
		}
	}
	if meta != 2 {
		t.Errorf("process metadata events = %d, want 2", meta)
	}
	if complete != traces[0].Spans {
		t.Errorf("complete events = %d, want %d spans", complete, traces[0].Spans)
	}
	for _, want := range []string{"test.op", "transport.tsdb.do", "tsdb.server.writeb"} {
		if !names[want] {
			t.Errorf("chrome trace missing span %q", want)
		}
	}

	wf := Waterfall(traces[0])
	for _, want := range []string{"test.op", "tsdb.server.writeb", "daemon", "tsdb-server"} {
		if !strings.Contains(wf, want) {
			t.Errorf("waterfall missing %q:\n%s", want, wf)
		}
	}
}

// TestTraceThroughFaultProxy is the trace-context round-trip chaos test:
// WRITEB frames (with traceparent tags) cross a fault-injecting proxy
// that cuts connections mid-frame, partitions, and heals. Server spans
// must never be mis-parented — every parented server span's parent must
// be a client attempt span of the same trace — and the run must be
// race-detector clean.
func TestTraceThroughFaultProxy(t *testing.T) {
	_, serverIn, addr := tracedTSDB(t)
	// Cut connections after small byte budgets so frames die mid-stream,
	// truncating some traceparent tags in flight.
	proxy := resilience.NewProxy(addr, resilience.Faults{ResetAfterBytes: 150}, 17)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	clientIn := introspect.New(introspect.WithProcess("daemon"), introspect.WithSampling(1, 41))
	cl, err := tsdb.DialPolicy(paddr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIntrospection(clientIn, "tsdb")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ctx, span := clientIn.StartSpan(context.Background(), "chaos.write")
				err := cl.WriteBatchContext(ctx, []tsdb.Point{{
					Measurement: "chaos",
					Tags:        map[string]string{"g": fmt.Sprint(g)},
					Fields:      map[string]float64{"v": float64(i)},
					Time:        int64(g*100 + i + 1),
				}})
				span.End(err)
				if i == 5 && g == 0 {
					proxy.Partition()
					proxy.DropConns()
					time.Sleep(10 * time.Millisecond)
					proxy.Heal()
				}
			}
		}(g)
	}
	wg.Wait()

	clientSpans := map[uint64]introspect.Span{}
	for _, s := range clientIn.Tracer().Spans() {
		clientSpans[s.ID] = s
	}
	serverSpans := serverIn.Tracer().Spans()
	if len(serverSpans) == 0 {
		t.Fatal("no server spans survived the chaos run")
	}
	checked := 0
	for _, s := range serverSpans {
		if !strings.HasPrefix(s.Name, "tsdb.server.") {
			continue
		}
		if s.Parent == 0 {
			continue // untraced root: a truncated tag fell back correctly
		}
		parent, ok := clientSpans[s.Parent]
		if strings.HasSuffix(s.Name, ".queue") || strings.HasSuffix(s.Name, ".parse") ||
			strings.HasSuffix(s.Name, ".insert") || strings.HasSuffix(s.Name, ".exec") {
			// Phase spans parent under the server's own op span.
			continue
		}
		checked++
		if !ok {
			t.Fatalf("server span %s parented under unknown id %016x", s.Name, s.Parent)
		}
		if parent.Trace != s.Trace {
			t.Fatalf("server span %s trace %s != parent trace %s (mis-parented)",
				s.Name, s.Trace, parent.Trace)
		}
		if !strings.HasSuffix(parent.Name, ".attempt") {
			t.Fatalf("server span %s parented under %q, want a transport attempt", s.Name, parent.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no tagged server op spans made it through the proxy")
	}

	// Assembly over both rings must not blow up and must keep parent
	// links coherent for every trace.
	col := NewCollector()
	col.Add("daemon", clientIn.Tracer())
	col.Add("tsdb-server", serverIn.Tracer())
	for _, tr := range col.Traces() {
		tr.Walk(func(n *Node, _ int) {
			for _, ch := range n.Children {
				if ch.Span.Trace != n.Span.Trace {
					t.Fatalf("assembled child %s in trace %s under parent of trace %s",
						ch.Span.Name, ch.Span.Trace, n.Span.Trace)
				}
			}
		})
	}
}

// TestUntaggedFramesAccepted pins the backward-compatibility contract:
// raw pre-traceparent frames — no tag at all — must be accepted by the
// wire server even with tracing enabled.
func TestUntaggedFramesAccepted(t *testing.T) {
	_, serverIn, addr := tracedTSDB(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "WRITEB 1\nlegacy,host=a v=1 123\n")
	resp, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(resp) != "OK 1" {
		t.Fatalf("untagged tsdb WRITEB: %q, %v", resp, err)
	}
	fmt.Fprintf(conn, "QUERY SELECT v FROM legacy\n")
	resp, err = r.ReadString('\n')
	if err != nil || strings.HasPrefix(resp, "ERR") {
		t.Fatalf("untagged tsdb QUERY: %q, %v", resp, err)
	}
	// The server opened local root spans for the untagged frames.
	ws, ok := serverIn.Tracer().Find("tsdb.server.writeb")
	if !ok || ws.Parent != 0 {
		t.Fatalf("untagged write span: %+v ok=%v (want local root)", ws, ok)
	}
}
