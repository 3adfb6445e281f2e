package experiments

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"

	"pmove/internal/introspect"
	"pmove/internal/introspect/traceexport"
	"pmove/internal/testkit"
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
	UntaggedOK  bool // legacy untagged WRITEB still accepted
	Waterfall   string
}

// TraceStudy reruns the degraded chaos scenario with distributed tracing
// on: the client process ("daemon" ring) and the tsdb server process
// ("tsdb" ring) each keep their own spans, linked over the wire by the
// traceparent field on every WRITEB, and testkit runs every tick under
// one root span. The middle third of the run is partitioned, so the
// assembled trace contains healthy round trips, failed attempts, backoff
// waits and post-heal replays — exactly the mix per-hop attribution must
// explain. The study then checks the acceptance criteria mechanically:
// the attribution components sum to the measured end-to-end wire time
// (≤5%), the Chrome trace-event JSON is valid, and an untagged legacy
// frame is still accepted.
func TraceStudy(ticks uint64, freqHz float64) (*TraceStudyResult, error) {
	if ticks < 3 {
		return nil, fmt.Errorf("experiments: trace study needs at least 3 ticks, got %d", ticks)
	}
	sc := chaosScenario("degraded", ticks, freqHz)
	sc.Tracing = true
	r, err := testkit.Run(sc)
	if err != nil {
		return nil, err
	}
	if r.SessionErr != nil {
		return nil, fmt.Errorf("experiments: trace study session: %w", r.SessionErr)
	}
	if len(r.Traces) != 1 {
		return nil, fmt.Errorf("experiments: trace study assembled %d traces, want 1", len(r.Traces))
	}
	tr := r.Traces[0]
	untagged, err := probeUntagged()
	if err != nil {
		return nil, err
	}
	a := traceexport.Attribute(tr)
	res := &TraceStudyResult{
		TraceID:     tr.ID.String(),
		Spans:       tr.Spans,
		Processes:   tr.Processes(),
		Orphans:     len(tr.Orphans),
		Dropped:     r.DroppedSpans,
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

// probeUntagged speaks the pre-tracing protocol to a throwaway in-memory
// tracing server: a legacy client that knows nothing of traceparent.
func probeUntagged() (bool, error) {
	srv := tsdb.NewServer(tsdb.New())
	srv.SetTracing(introspect.New(introspect.WithProcess("tsdb")))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return false, err
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return false, nil
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "WRITEB 1\nlegacy,host=old v=1 123\n"); err != nil {
		return false, nil
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return err == nil && strings.TrimSpace(string(buf[:n])) == "OK 1", nil
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
