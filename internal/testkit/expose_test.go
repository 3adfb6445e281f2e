package testkit

import (
	"testing"

	"pmove/internal/introspect/logbuf"
)

// TestReadyzFlipsUnderPartition drives the observability plane through
// an injected partition: /readyz is ready before the fault, flips to
// not-ready while writes spill behind the black hole, and recovers
// after heal once the backlog replays and the breaker closes.
func TestReadyzFlipsUnderPartition(t *testing.T) {
	sc := Scenario{
		Seed: 0xc0ffee,
		Load: Load{FreqHz: 25, Ticks: 8},
		Faults: []FaultEvent{
			{AtTick: 3, Kind: FaultPartitionTSDB},
			{AtTick: 6, Kind: FaultHealTSDB},
		},
		Degraded:   true,
		JournalCap: 1024,
		Breaker:    true,
		Expose:     true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionErr != nil {
		t.Fatalf("degraded session aborted: %v", res.SessionErr)
	}
	if res.ExposeAddr == "" {
		t.Fatal("expose plane did not bind")
	}
	if got, want := len(res.ReadyStates), int(sc.Load.Ticks); got != want {
		t.Fatalf("%d ready polls, want %d", got, want)
	}
	// Before the partition the stack is healthy end to end.
	for tick := 0; tick < 2; tick++ {
		if !res.ReadyStates[tick] {
			t.Fatalf("tick %d: not ready before any fault", tick+1)
		}
	}
	// The first partitioned tick spills its batch, so the backlog check
	// flips readiness deterministically even before the breaker opens.
	for tick := 2; tick < 5; tick++ {
		if res.ReadyStates[tick] {
			t.Fatalf("tick %d: ready while partitioned with spilled backlog", tick+1)
		}
	}
	if !res.RecoveredReady {
		t.Fatalf("plane never recovered readiness after heal; states=%v pending=%d breaker=%v",
			res.ReadyStates, res.Collector.PendingSpill(), res.BreakerStates)
	}
	// The degradation narrative landed in the structured log ring: the
	// pipeline announced entering degraded mode and the transport logged
	// its failures, each tagged with its component.
	if res.Logs == nil {
		t.Fatal("expose scenario returned no log ring")
	}
	if n := len(res.Logs.Filter(logbuf.Query{Component: "telemetry", MinLevel: logbuf.Warn})); n == 0 {
		t.Fatal("no telemetry degradation records in the ring")
	}
	if n := len(res.Logs.Filter(logbuf.Query{Component: "transport.tsdb"})); n == 0 {
		t.Fatal("no tsdb transport records in the ring")
	}
}
