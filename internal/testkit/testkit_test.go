package testkit

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"pmove/internal/resilience"
)

// TestScenarioDeterministicReplay is the harness's load-bearing claim:
// the same seeded chaos scenario, run twice as two complete stacks with
// real sockets and real faults, produces byte-identical event logs. A
// divergence here means some nondeterminism (wall time, map order,
// goroutine interleaving) leaked into the semantic outcome.
func TestScenarioDeterministicReplay(t *testing.T) {
	for _, seed := range []uint64{1, 3, 0xbeef, 0xdecaf, 0x5eed5eed} {
		a, err := Replay(seed)
		if err != nil {
			t.Fatalf("seed %#x: run A: %v", seed, err)
		}
		b, err := Replay(seed)
		if err != nil {
			t.Fatalf("seed %#x: run B: %v", seed, err)
		}
		if !a.Log.Equal(b.Log) {
			t.Fatalf("seed %#x: replay diverged (%s):\n%s", seed, ReproLine(seed), a.Log.Diff(b.Log))
		}
		if a.Log.Digest() != b.Log.Digest() {
			t.Fatalf("seed %#x: digests differ for equal logs", seed)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("seed %#x: oracle violated (%s): %v", seed, ReproLine(seed), err)
		}
		if len(a.Log.Events) == 0 {
			t.Fatalf("seed %#x: empty event log", seed)
		}
	}
}

// TestScenarioKillRestartSpillsAndReplays pins the graceful-degradation
// arc under a deterministic outage: points spill while the tsdb is dead,
// replay after it returns, and the conservation law holds throughout.
func TestScenarioKillRestartSpillsAndReplays(t *testing.T) {
	sc := Scenario{
		Seed:     7,
		Load:     Load{FreqHz: 25, Ticks: 12},
		Degraded: true,
		Faults: []FaultEvent{
			{AtTick: 4, Kind: FaultKillTSDB},
			{AtTick: 8, Kind: FaultRestartTSDB},
		},
		Tracing: true,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionErr != nil {
		t.Fatalf("degraded session must survive the outage, got %v", r.SessionErr)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	c := r.Collector
	if c.Spilled == 0 {
		t.Error("outage produced no spilled points")
	}
	if c.Replayed == 0 {
		t.Error("recovery produced no replayed points")
	}
	if c.PendingSpillFields() != 0 {
		t.Errorf("journal still holds %d points after recovery", c.PendingSpillFields())
	}
	if c.Inserted != c.Expected-c.Lost {
		t.Errorf("after full replay want inserted %d (expected-lost), got %d", c.Expected-c.Lost, c.Inserted)
	}
	if len(r.Traces) == 0 {
		t.Error("tracing scenario assembled no traces")
	}
}

// TestScenarioJournalCapEvicts pins bounded-journal accounting: a long
// outage against a tiny journal must evict (SpillDropped) rather than
// grow without bound, and the evicted points stay accounted for.
func TestScenarioJournalCapEvicts(t *testing.T) {
	sc := Scenario{
		Seed:       11,
		Load:       Load{FreqHz: 25, Ticks: 10},
		Degraded:   true,
		JournalCap: 2,
		Faults:     []FaultEvent{{AtTick: 2, Kind: FaultKillTSDB}},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.Collector.SpillDropped == 0 {
		t.Error("tiny journal under a long outage evicted nothing")
	}
	if got := r.Collector.PendingSpill(); got > 2 {
		t.Errorf("journal holds %d entries, cap is 2", got)
	}
}

// TestScenarioNonDegradedAborts pins the fail-stop contract: without
// graceful degradation a sink outage aborts the session, and the event
// log records the abort instead of fabricating ticks.
func TestScenarioNonDegradedAborts(t *testing.T) {
	sc := Scenario{
		Seed:   3,
		Load:   Load{FreqHz: 25, Ticks: 10},
		Faults: []FaultEvent{{AtTick: 3, Kind: FaultKillTSDB}},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionErr == nil {
		t.Fatal("non-degraded session survived a dead sink")
	}
	last := r.Log.Events[len(r.Log.Events)-1]
	if last.Kind != "note" || last.Detail != "session-error" {
		t.Errorf("log does not end with the abort, got %q", last.String())
	}
	// The abort exempts conservation; the other oracles still hold.
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioBreakerLegalObservations runs a breaker-enabled chaos
// scenario (semantic outcomes may shift with wall-clock cooldowns, so no
// log comparison) and asserts every per-tick breaker observation is a
// legal state and the conservation law still holds.
func TestScenarioBreakerLegalObservations(t *testing.T) {
	sc := Scenario{
		Seed:     19,
		Load:     Load{FreqHz: 25, Ticks: 14},
		Degraded: true,
		Breaker:  true,
		Faults: []FaultEvent{
			{AtTick: 3, Kind: FaultKillTSDB},
			{AtTick: 9, Kind: FaultRestartTSDB},
		},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBreakerStates(r); err != nil {
		t.Fatal(err)
	}
	if err := CheckConservation(r); err != nil {
		t.Fatal(err)
	}
	if len(r.BreakerStates) == 0 {
		t.Fatal("no breaker observations recorded")
	}
}

// TestBreakerMachineLegality drives the breaker itself through thousands
// of seeded protocol-respecting steps (Allow → attempt outcome) and
// validates every single-step transition against the legality oracle.
func TestBreakerMachineLegality(t *testing.T) {
	rng := resilience.NewRNG(42)
	b := resilience.NewBreaker(resilience.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Millisecond})
	now := time.Unix(0, 0)
	prev := b.State()
	step := func(what string) {
		cur := b.State()
		if cur != prev && !LegalBreakerTransition(prev, cur) {
			t.Fatalf("illegal transition %s -> %s after %s", prev, cur, what)
		}
		prev = cur
	}
	for i := 0; i < 5000; i++ {
		now = now.Add(time.Duration(rng.Uint64()%15) * time.Millisecond)
		if !b.Allow(now) {
			step("allow=false")
			continue
		}
		step("allow=true")
		if rng.Float64() < 0.4 {
			b.Failure(now)
			step("failure")
		} else {
			b.Success()
			step("success")
		}
	}
	if b.Opens() == 0 {
		t.Error("seeded walk never opened the circuit — oracle untested")
	}
}

// TestLegalBreakerTransitionTable pins the oracle itself.
func TestLegalBreakerTransitionTable(t *testing.T) {
	legal := map[[2]resilience.BreakerState]bool{
		{resilience.BreakerClosed, resilience.BreakerClosed}:     true,
		{resilience.BreakerClosed, resilience.BreakerOpen}:       true,
		{resilience.BreakerClosed, resilience.BreakerHalfOpen}:   false,
		{resilience.BreakerOpen, resilience.BreakerOpen}:         true,
		{resilience.BreakerOpen, resilience.BreakerHalfOpen}:     true,
		{resilience.BreakerOpen, resilience.BreakerClosed}:       false,
		{resilience.BreakerHalfOpen, resilience.BreakerClosed}:   true,
		{resilience.BreakerHalfOpen, resilience.BreakerOpen}:     true,
		{resilience.BreakerHalfOpen, resilience.BreakerHalfOpen}: true,
	}
	for pair, want := range legal {
		if got := LegalBreakerTransition(pair[0], pair[1]); got != want {
			t.Errorf("LegalBreakerTransition(%s, %s) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

// TestFromSeedStable pins that a seed fully determines its scenario —
// the repro line depends on it.
func TestFromSeedStable(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xffffffffffffffff} {
		a, b := FromSeed(seed), FromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %#x: FromSeed not stable", seed)
		}
		if a.Load.Ticks < 18 || a.Load.Ticks > 29 {
			t.Errorf("seed %#x: ticks %d out of documented range", seed, a.Load.Ticks)
		}
		var kill, restart uint64
		for _, f := range a.Faults {
			switch f.Kind {
			case FaultKillTSDB:
				kill = f.AtTick
			case FaultRestartTSDB:
				restart = f.AtTick
			}
		}
		if restart <= kill {
			t.Errorf("seed %#x: restart tick %d not after kill tick %d", seed, restart, kill)
		}
	}
	// Seed 42's schedule, pinned at the values it had while the scenario
	// still carried a docdb outage: retiring that leg left every seed
	// exercising the same tsdb schedule.
	sc := FromSeed(42)
	if sc.Load.Ticks != 19 || sc.Load.FreqHz != 25 {
		t.Errorf("seed 42: ticks %d at %v Hz, want 19 at 25 Hz", sc.Load.Ticks, sc.Load.FreqHz)
	}
	want := []FaultEvent{
		{AtTick: 6, Kind: FaultKillTSDB},
		{AtTick: 11, Kind: FaultRestartTSDB},
		{AtTick: 13, Kind: FaultDropTSDBConns},
	}
	if !reflect.DeepEqual(sc.Faults, want) {
		t.Errorf("seed 42: faults %+v, want %+v", sc.Faults, want)
	}
	want = append(want, FaultEvent{AtTick: 7, Kind: FaultTornTSDBWAL})
	if got := DurableFromSeed(42).Faults; !reflect.DeepEqual(got, want) {
		t.Errorf("seed 42 durable: faults %+v, want %+v", got, want)
	}
}

// TestRunRejectsBadScenarios pins setup validation.
func TestRunRejectsBadScenarios(t *testing.T) {
	if _, err := Run(Scenario{Seed: 1, Load: Load{FreqHz: 25}}); err == nil {
		t.Error("zero-tick scenario accepted")
	}
	if _, err := Run(Scenario{Seed: 1, Load: Load{Ticks: 3}}); err == nil {
		t.Error("zero-frequency scenario accepted")
	}
	if _, err := Run(Scenario{Seed: 1, Preset: "not-a-preset", Load: Load{FreqHz: 25, Ticks: 3}}); err == nil {
		t.Error("unknown preset accepted")
	}
	sc := Scenario{Seed: 1, Load: Load{FreqHz: 25, Ticks: 3}, Faults: []FaultEvent{{AtTick: 1, Kind: "no-such-fault"}}}
	if _, err := Run(sc); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

// TestReproLine pins the repro format failing tests print.
func TestReproLine(t *testing.T) {
	if got, want := ReproLine(0xdecaf), "testkit.Replay(0xdecaf)"; got != want {
		t.Errorf("ReproLine = %q, want %q", got, want)
	}
}

// TestEventLogDiff pins the divergence report used in replay failures.
func TestEventLogDiff(t *testing.T) {
	a := &EventLog{}
	a.Append(Event{Tick: 1, Kind: "tick", Expected: 10})
	b := &EventLog{}
	b.Append(Event{Tick: 1, Kind: "tick", Expected: 11})
	if a.Equal(b) {
		t.Fatal("distinct logs reported equal")
	}
	if d := a.Diff(b); d == "" {
		t.Fatal("no diff for distinct logs")
	}
	if d := a.Diff(a); d != "" {
		t.Fatalf("self-diff non-empty: %s", d)
	}
	var errJoin error = errors.Join(nil, nil)
	if errJoin != nil {
		t.Fatal("sanity: errors.Join(nil, nil) != nil")
	}
}
