package testkit

import "testing"

// TestDurableKillRestartRecovery is the acceptance scenario: a WAL-backed
// server with fsync=always, the tsdb killed mid-load (crashing the
// database, not just the listener) and restarted from its data
// directory. The session spills through the outage, resyncs after the
// restart, and the durable recovery oracle holds: every acknowledged
// point is present server-side exactly once.
func TestDurableKillRestartRecovery(t *testing.T) {
	sc := Scenario{
		Seed:     0xD0,
		Load:     Load{FreqHz: 25, Ticks: 16},
		Degraded: true,
		Durable:  true,
		Fsync:    "always",
		Faults: []FaultEvent{
			{AtTick: 5, Kind: FaultKillTSDB},
			{AtTick: 9, Kind: FaultRestartTSDB},
		},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionErr != nil {
		t.Fatalf("degraded session must survive the crash, got %v", r.SessionErr)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	c := r.Collector
	if c.Spilled == 0 {
		t.Error("crash window produced no spilled points")
	}
	if c.Replayed == 0 {
		t.Error("recovered server absorbed no replayed points")
	}
}

// TestDurableScenarioDeterministic: durability must not leak paths,
// file-system timing or recovery artifacts into the event log — two
// complete durable runs (separate temp dirs, real crashes and
// recoveries) replay byte-identically, and the oracles hold.
func TestDurableScenarioDeterministic(t *testing.T) {
	for _, seed := range []uint64{2, 0xBEEF} { // one torn, one corrupt-tail flavour
		a, err := ReplayDurable(seed)
		if err != nil {
			t.Fatalf("seed %#x: run A: %v", seed, err)
		}
		b, err := ReplayDurable(seed)
		if err != nil {
			t.Fatalf("seed %#x: run B: %v", seed, err)
		}
		if !a.Log.Equal(b.Log) {
			t.Fatalf("seed %#x: durable replay diverged:\n%s", seed, a.Log.Diff(b.Log))
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("seed %#x: oracle violated: %v", seed, err)
		}
	}
}

// TestDurableTornWALFault pins the torn-write injection path in
// isolation: a torn frame is appended to the dead tsdb's WAL, and the
// restart recovers the clean prefix — the run completes and the
// fsync=always oracle still balances.
func TestDurableTornWALFault(t *testing.T) {
	sc := Scenario{
		Seed:     21,
		Load:     Load{FreqHz: 25, Ticks: 14},
		Degraded: true,
		Durable:  true,
		Faults: []FaultEvent{
			{AtTick: 4, Kind: FaultKillTSDB},
			{AtTick: 5, Kind: FaultTornTSDBWAL},
			{AtTick: 8, Kind: FaultRestartTSDB},
		},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptTailWALFault: same arc with a complete final frame
// whose checksum is wrong — indistinguishable from a partially flushed
// sector, so recovery must also truncate it rather than error.
func TestDurableCorruptTailWALFault(t *testing.T) {
	sc := Scenario{
		Seed:     22,
		Load:     Load{FreqHz: 25, Ticks: 14},
		Degraded: true,
		Durable:  true,
		Faults: []FaultEvent{
			{AtTick: 4, Kind: FaultKillTSDB},
			{AtTick: 6, Kind: FaultCorruptTailTSDBWAL},
			{AtTick: 8, Kind: FaultRestartTSDB},
		},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWALFaultRequiresDeadServer pins the injection contract: WAL faults
// against a live server (or a non-durable scenario) are scenario bugs,
// reported as setup errors rather than silently corrupting a live log.
func TestWALFaultRequiresDeadServer(t *testing.T) {
	live := Scenario{
		Seed:    1,
		Load:    Load{FreqHz: 25, Ticks: 4},
		Durable: true,
		Faults:  []FaultEvent{{AtTick: 2, Kind: FaultTornTSDBWAL}},
	}
	if _, err := Run(live); err == nil {
		t.Error("torn-wal against a live server accepted")
	}
	volatile := Scenario{
		Seed: 1,
		Load: Load{FreqHz: 25, Ticks: 4},
		Faults: []FaultEvent{
			{AtTick: 1, Kind: FaultKillTSDB},
			{AtTick: 2, Kind: FaultTornTSDBWAL},
		},
		Degraded: true,
	}
	if _, err := Run(volatile); err == nil {
		t.Error("torn-wal in a non-durable scenario accepted")
	}
}

// TestDurableBadFsyncRejected pins policy validation at setup.
func TestDurableBadFsyncRejected(t *testing.T) {
	sc := Scenario{Seed: 1, Load: Load{FreqHz: 25, Ticks: 4}, Durable: true, Fsync: "sometimes"}
	if _, err := Run(sc); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}
