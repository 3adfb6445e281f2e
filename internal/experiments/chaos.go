package experiments

import (
	"context"
	"fmt"
	"time"

	"pmove/internal/machine"
	"pmove/internal/resilience"
	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// ChaosRow is one configuration of the fault-injection study.
type ChaosRow struct {
	Mode     string // pipeline configuration under test
	Outcome  string // "completed" or the abort error
	Expected uint64
	Inserted uint64
	Spilled  uint64
	Replayed uint64
	Dropped  uint64 // journal evictions (bounded loss)
	Pending  uint64
	Retries  uint64
	Dials    uint64
	// EndLossPct is end-to-end loss: expected points that never reached
	// the host DB, whatever the mechanism (abort, eviction, backlog).
	EndLossPct float64
}

// ChaosResult is the graceful-degradation study: the same monitoring
// session shipped through a real TCP tsdb server that is partitioned for
// the middle third of the run.
type ChaosResult struct {
	Rows  []ChaosRow
	Ticks uint64
}

// ChaosStudy runs one monitoring session per pipeline mode against a
// live tsdb server behind a fault-injection proxy. The link is healthy
// for the first third of the ticks, partitioned for the second, healed
// for the last. Pipeline simulation costs are zeroed so every lost point
// is attributable to the injected outage:
//
//   - "baseline" never sees a fault — the control row.
//   - "default" hits the outage with the paper-faithful unbuffered
//     pipeline: the session aborts at the partition.
//   - "degraded" hits the same outage with graceful degradation on: the
//     session completes, the journal replays after the heal, and loss is
//     bounded by the journal cap.
func ChaosStudy(ticks uint64, freqHz float64) (*ChaosResult, error) {
	if ticks < 3 {
		return nil, fmt.Errorf("experiments: chaos needs at least 3 ticks, got %d", ticks)
	}
	res := &ChaosResult{Ticks: ticks}
	for _, mode := range []string{"baseline", "default", "degraded"} {
		row, err := chaosRun(mode, ticks, freqHz)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// chaosPolicy fails fast so the partitioned phase costs milliseconds per
// tick, not the default multi-second deadlines.
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  time.Second,
		ReadTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		MaxRetries:   1,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Seed:         11,
	}
}

func chaosRun(mode string, ticks uint64, freqHz float64) (*ChaosRow, error) {
	db := tsdb.New()
	srv := tsdb.NewServer(db)
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

	_, pm, err := newTarget("icl", 7)
	if err != nil {
		return nil, err
	}
	cfg := telemetry.PipelineConfig{Seed: 1} // zero simulated costs
	cfg.Degraded = mode == "degraded"
	col := telemetry.NewCollector(nil, cfg)
	col.Sink = client
	sess, err := telemetry.NewSession(pm, col, telemetry.SessionConfig{
		Metrics: []string{machine.MetricCPUIdle}, FreqHz: freqHz, Tag: "chaos-" + mode,
	})
	if err != nil {
		return nil, err
	}

	third := ticks / 3
	row := &ChaosRow{Mode: mode, Outcome: "completed"}
	phases := []struct {
		ticks uint64
		fault func()
	}{
		{third, nil},
		{third, func() { proxy.Partition(); proxy.DropConns() }},
		{ticks - 2*third, func() { proxy.Heal() }},
	}
	for _, ph := range phases {
		if ph.fault != nil && mode != "baseline" {
			ph.fault()
		}
		if _, err := sess.RunTicksContext(context.Background(), ph.ticks); err != nil {
			row.Outcome = fmt.Sprintf("aborted: %.24s...", err)
			break
		}
	}
	row.Expected = col.Expected
	row.Inserted = col.Inserted
	row.Spilled = col.Spilled
	row.Replayed = col.Replayed
	row.Dropped = col.SpillDropped
	row.Pending = uint64(col.PendingSpill())
	ts := client.Stats()
	row.Retries, row.Dials = ts.Retries, ts.Dials
	if row.Expected > 0 {
		row.EndLossPct = 100 * float64(row.Expected-row.Inserted) / float64(row.Expected)
	}
	return row, nil
}

// Render formats the study as a table.
func (r *ChaosResult) Render() string {
	tw := newTableWriter(
		fmt.Sprintf("Chaos study: tsdb partitioned for the middle third of %d ticks", r.Ticks),
		"%-9s %-34s %9v %9v %8v %8v %7v %7v %7v %6v %7s\n",
		"Mode", "Outcome", "Expected", "Inserted", "Spilled", "Replayed", "Evicted", "Pending", "Retries", "Dials", "EndL%")
	for _, row := range r.Rows {
		tw.row(row.Mode, row.Outcome, row.Expected, row.Inserted,
			row.Spilled, row.Replayed, row.Dropped, row.Pending,
			row.Retries, row.Dials, fmt1(row.EndLossPct))
	}
	return tw.String()
}
