package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"

	"pmove/internal/introspect"
	"pmove/internal/introspect/traceexport"
	"pmove/internal/machine"
	"pmove/internal/resilience"
	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// TraceStudyResult is the distributed-tracing chaos study: one degraded
// monitoring session shipped through a partitioned-then-healed proxy,
// with every wire frame traceparent-tagged, assembled into a single
// multi-process trace and attributed hop by hop.
type TraceStudyResult struct {
	TraceID     string
	Spans       int
	Processes   []string
	Orphans     int
	Dropped     uint64 // spans evicted from either ring during the run
	Attribution traceexport.Attribution
	SumDeltaPct float64 // |attribution sum - end-to-end| as % of end-to-end
	ChromeJSON  []byte
	ChromeValid bool
	UntaggedOK  bool // legacy untagged WRITEB still accepted mid-run
	Waterfall   string
}

// TraceStudy reruns the chaos scenario with distributed tracing on: the
// client process ("daemon" ring) and the tsdb server process
// ("tsdb-server" ring) each keep their own spans, linked over the wire
// by the traceparent field on every WRITEB. The middle third of the run
// is partitioned, so the assembled trace contains healthy round trips,
// failed attempts, backoff waits and post-heal replays — exactly the
// mix per-hop attribution must explain. The study then checks the
// acceptance criteria mechanically: the attribution components sum to
// the measured end-to-end wire time (≤5%), the Chrome trace-event JSON
// is valid, and an untagged legacy frame is still accepted.
func TraceStudy(ticks uint64, freqHz float64) (*TraceStudyResult, error) {
	if ticks < 3 {
		return nil, fmt.Errorf("experiments: trace study needs at least 3 ticks, got %d", ticks)
	}
	srv := tsdb.NewServer(tsdb.New())
	serverIn := introspect.New(
		introspect.WithProcess("tsdb-server"),
		introspect.WithSampling(1, 23),
		introspect.WithSpanCapacity(1<<14),
	)
	srv.SetTracing(serverIn)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	proxy := resilience.NewProxy(addr, resilience.Faults{}, 17)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	client, err := tsdb.DialPolicy(paddr, chaosPolicy())
	if err != nil {
		return nil, err
	}
	defer client.Close()

	clientIn := introspect.New(
		introspect.WithProcess("daemon"),
		introspect.WithSampling(1, 29),
		introspect.WithSpanCapacity(1<<14),
	)
	client.Transport().SetIntrospection(clientIn, "tsdb")

	_, pm, err := newTarget("icl", 7)
	if err != nil {
		return nil, err
	}
	cfg := telemetry.PipelineConfig{Seed: 1, Degraded: true} // zero simulated costs, survive the outage
	col := telemetry.NewCollector(nil, cfg)
	col.Sink = client
	col.Self = clientIn
	sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
		Metrics: []string{machine.MetricCPUIdle}, FreqHz: freqHz, Tag: "chaos-trace",
	})
	if err != nil {
		return nil, err
	}

	// One root span over the whole three-phase run: everything beneath —
	// session ticks, offers, transport attempts, server inserts — joins
	// one distributed trace.
	ctx, root := clientIn.StartSpan(context.Background(), "chaos.trace")
	sc := root.Context()
	third := ticks / 3
	phases := []struct {
		ticks uint64
		fault func()
	}{
		{third, nil},
		{third, func() { proxy.Partition(); proxy.DropConns() }},
		{ticks - 2*third, func() { proxy.Heal() }},
	}
	var runErr error
	for _, ph := range phases {
		if ph.fault != nil {
			ph.fault()
		}
		if _, err := sess.RunTicksContext(ctx, ph.ticks); err != nil {
			runErr = err
			break
		}
	}
	root.End(runErr)
	if runErr != nil {
		return nil, fmt.Errorf("experiments: trace study session: %w", runErr)
	}

	// Mid-run backward-compatibility probe: a legacy client that knows
	// nothing of traceparent writes straight to the server.
	untagged := probeUntagged(addr)

	colr := traceexport.NewCollector()
	colr.Add("daemon", clientIn.Tracer())
	colr.Add("tsdb-server", serverIn.Tracer())
	tr, ok := colr.Trace(sc.Trace)
	if !ok {
		return nil, fmt.Errorf("experiments: trace %s not assembled", sc.Trace)
	}
	a := traceexport.Attribute(tr)
	traceexport.RecordAttribution(clientIn.Metrics(), a)
	res := &TraceStudyResult{
		TraceID:     sc.Trace.String(),
		Spans:       tr.Spans,
		Processes:   tr.Processes(),
		Orphans:     len(tr.Orphans),
		Dropped:     clientIn.Tracer().Dropped() + serverIn.Tracer().Dropped(),
		Attribution: a,
		UntaggedOK:  untagged,
		Waterfall:   traceexport.Waterfall(tr),
	}
	if a.EndToEndSeconds > 0 {
		res.SumDeltaPct = 100 * abs(a.Sum()-a.EndToEndSeconds) / a.EndToEndSeconds
	}
	if res.ChromeJSON, err = traceexport.ChromeTrace(tr); err != nil {
		return nil, err
	}
	res.ChromeValid = json.Valid(res.ChromeJSON)
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// probeUntagged speaks the pre-tracing protocol directly to the server.
func probeUntagged(addr string) bool {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "WRITEB 1\nlegacy,host=old v=1 123\n"); err != nil {
		return false
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return err == nil && strings.TrimSpace(string(buf[:n])) == "OK 1"
}

// Render formats the study: a summary block, the per-hop attribution,
// and a truncated waterfall of the assembled trace.
func (r *TraceStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace study: distributed trace %s\n", r.TraceID)
	fmt.Fprintf(&b, "  spans %d across %s · orphans %d · ring drops %d\n",
		r.Spans, strings.Join(r.Processes, "+"), r.Orphans, r.Dropped)
	fmt.Fprintf(&b, "  attribution sum within %.2f%% of end-to-end (criterion ≤5%%)\n", r.SumDeltaPct)
	fmt.Fprintf(&b, "  chrome trace-event JSON: %d bytes, valid=%v\n", len(r.ChromeJSON), r.ChromeValid)
	fmt.Fprintf(&b, "  untagged legacy frame accepted: %v\n", r.UntaggedOK)
	b.WriteString(r.Attribution.String())
	lines := strings.SplitN(r.Waterfall, "\n", 26)
	if len(lines) == 26 {
		lines[25] = "  ... (waterfall truncated)"
	}
	b.WriteString(strings.Join(lines, "\n"))
	if !strings.HasSuffix(b.String(), "\n") {
		b.WriteString("\n")
	}
	return b.String()
}
