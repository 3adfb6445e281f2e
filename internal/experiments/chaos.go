package experiments

import (
	"fmt"

	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/testkit"
	"pmove/internal/topo"
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

// ChaosStudy runs one monitoring session per pipeline mode as a testkit
// scenario: a live tsdb server behind a fault-injection proxy. The link
// is healthy for the first third of the ticks, partitioned for the
// second, healed for the last. Pipeline simulation costs are zeroed so
// every lost point is attributable to the injected outage:
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
		r, err := testkit.Run(chaosScenario(mode, ticks, freqHz))
		if err != nil {
			return nil, err
		}
		col := r.Collector
		row := ChaosRow{
			Mode: mode, Outcome: "completed",
			Expected: col.Expected, Inserted: col.Inserted,
			Spilled: col.Spilled, Replayed: col.Replayed, Dropped: col.SpillDropped,
			Pending: uint64(col.PendingSpill()),
			Retries: r.ClientStats.Retries, Dials: r.ClientStats.Dials,
		}
		if r.SessionErr != nil {
			row.Outcome = fmt.Sprintf("aborted: %.24s...", r.SessionErr)
		}
		if row.Expected > 0 {
			row.EndLossPct = 100 * float64(row.Expected-row.Inserted) / float64(row.Expected)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// chaosScenario is one mode of the study: the partition and a reset of
// every live connection before the middle third, the heal before the
// last ("baseline" runs fault-free).
func chaosScenario(mode string, ticks uint64, freqHz float64) testkit.Scenario {
	sc := testkit.Scenario{
		Seed:     7,
		Preset:   topo.PresetICL,
		Load:     testkit.Load{Metrics: []string{machine.MetricCPUIdle}, FreqHz: freqHz, Ticks: ticks},
		Pipeline: &telemetry.PipelineConfig{Seed: 1, Degraded: mode == "degraded"}, // zero simulated costs
	}
	if third := ticks / 3; mode != "baseline" {
		sc.Faults = []testkit.FaultEvent{
			{AtTick: third + 1, Kind: testkit.FaultPartitionTSDB},
			{AtTick: third + 1, Kind: testkit.FaultDropTSDBConns},
			{AtTick: 2*third + 1, Kind: testkit.FaultHealTSDB},
		}
	}
	return sc
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
