package testkit

import (
	"testing"
)

// TestQueryEveryTickPartitionChaos drives the aggregate query engine
// through a partition/heal window over the wire: one windowed
// count+mean query per tick through the resilient client. Queries must
// succeed (with data) on every tick before the partition and on every
// tick after the heal; the partitioned window is allowed — expected —
// to fail. Outcomes are read from Result.QueryOutcomes, never the
// event log, which must replay byte-identically with queries enabled.
func TestQueryEveryTickPartitionChaos(t *testing.T) {
	sc := Scenario{
		Seed: 0x5eed9,
		Load: Load{FreqHz: 25, Ticks: 10},
		Faults: []FaultEvent{
			{AtTick: 4, Kind: FaultPartitionTSDB},
			{AtTick: 7, Kind: FaultHealTSDB},
		},
		Degraded:       true,
		JournalCap:     1024,
		QueryEveryTick: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionErr != nil {
		t.Fatalf("degraded session aborted: %v", res.SessionErr)
	}
	if got, want := len(res.QueryOutcomes), int(sc.Load.Ticks); got != want {
		t.Fatalf("%d query outcomes, want %d", got, want)
	}
	for _, qo := range res.QueryOutcomes {
		switch {
		case qo.Tick < 4: // healthy prefix: fresh writes every tick
			if !qo.OK {
				t.Fatalf("tick %d: query failed before any fault", qo.Tick)
			}
			if qo.Rows == 0 {
				t.Fatalf("tick %d: query returned no windows despite %d ticks of writes", qo.Tick, qo.Tick)
			}
		case qo.Tick >= 7: // healed suffix: the wire works again
			if !qo.OK {
				t.Fatalf("tick %d: query failed after heal", qo.Tick)
			}
			if qo.Rows == 0 {
				t.Fatalf("tick %d: query returned no windows after heal", qo.Tick)
			}
		default:
			// Partitioned window (ticks 4..6): the black hole eats the
			// request; OK here would mean the partition never bit, but
			// retry timing is wall-clock so we don't assert failure.
		}
	}

	// The event log is still byte-identical on replay — per-tick queries
	// must not leak wall-clock-dependent entries into it.
	res2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := res.Log.Digest(), res2.Log.Digest(); d1 != d2 {
		t.Fatalf("event log not deterministic with QueryEveryTick: %#x vs %#x", d1, d2)
	}
}
