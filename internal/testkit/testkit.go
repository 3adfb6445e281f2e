// Package testkit is the deterministic simulation harness for the whole
// P-MoVE wire stack: a single Scenario descriptor stands up an in-process
// daemon (probe → KB → dashboards), a telemetry session, a resilient tsdb
// client, a fault proxy and a real tsdb server, then drives the session
// tick by tick while injecting a seeded fault schedule. The document
// store is embedded in the daemon, as in production, so it has no wire
// leg here. Every semantic outcome (inserted/lost/spilled/replayed
// counts, fault applications) lands in an EventLog
// that replays byte-identically from the same seed — a failing chaos run
// reduces to the one-line repro testkit.Replay(seed) instead of a flake.
//
// Invariant oracles (oracles.go) assert the conservation laws the paper's
// quantitative claims rest on: session point conservation, no duplicate
// inserts after reconnect-with-resync, breaker state machine legality,
// and trace attribution summing to end-to-end.
package testkit

import (
	"fmt"

	"pmove/internal/machine"
	"pmove/internal/resilience"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// FaultKind names one injectable fault. Kill/Restart act on the backend
// server (connection refused — instantaneous, fully deterministic);
// Partition/Heal act on the fault proxy (black hole — deterministic
// outcome, real-time cost of one read timeout per attempt); DropConns
// resets every live proxied connection once.
type FaultKind string

// Injectable faults. All are applied at tick boundaries, never mid-op,
// so an acknowledged write is never in flight when the fault lands —
// the precondition for the no-duplicate-insert oracle.
const (
	FaultKillTSDB      FaultKind = "kill-tsdb"
	FaultRestartTSDB   FaultKind = "restart-tsdb"
	FaultPartitionTSDB FaultKind = "partition-tsdb"
	FaultHealTSDB      FaultKind = "heal-tsdb"
	FaultDropTSDBConns FaultKind = "drop-tsdb-conns"

	// WAL faults (Durable scenarios only, and only while the server is
	// down — between its kill and restart): they append the
	// residue a crash mid-append leaves on disk, which the subsequent
	// restart must truncate away. Torn writes a frame header promising
	// more bytes than follow; corrupt-tail writes a complete final frame
	// whose checksum does not match (indistinguishable from a partially
	// flushed sector, so recovery treats it as torn).
	FaultTornTSDBWAL        FaultKind = "torn-tsdb-wal"
	FaultCorruptTailTSDBWAL FaultKind = "corrupt-tail-tsdb-wal"
)

// FaultEvent schedules one fault before the given 1-based tick runs.
type FaultEvent struct {
	AtTick uint64
	Kind   FaultKind
}

// Load describes the telemetry pressure a scenario applies.
type Load struct {
	// Metrics are the software metrics sampled each tick; empty selects
	// the harness default (cpu idle + user).
	Metrics []string
	// FreqHz is the sampling frequency driving the virtual clock.
	FreqHz float64
	// Ticks is the total number of sampling ticks.
	Ticks uint64
}

// Scenario is the single descriptor a simulation runs from. Two runs of
// the same Scenario produce identical event logs: the machine, the
// pipeline jitter, the fault schedule and the proxy all draw from RNG
// streams derived from Seed, and wall-clock time never enters the log.
type Scenario struct {
	// Seed derives every RNG stream in the stack.
	Seed uint64
	// Preset is the topo preset of the simulated target ("" = icl).
	Preset string
	// Load is the telemetry pressure.
	Load Load
	// Pipeline overrides the host-side pipeline model when non-nil;
	// the default keeps the paper-calibrated Table III costs (virtual
	// time, so free to simulate) with Degraded spill/replay enabled.
	Pipeline *telemetry.PipelineConfig
	// Degraded toggles graceful degradation (spill journal + replay).
	// Without it a sink outage aborts the session, which is itself a
	// scenario worth asserting.
	Degraded bool
	// JournalCap bounds the spill journal (0 = telemetry default).
	JournalCap int
	// Faults is the seeded fault schedule.
	Faults []FaultEvent
	// Tracing attaches introspectors end to end so the attribution
	// oracle can check per-hop latency conservation. Spans carry wall
	// time and stay out of the event log.
	Tracing bool
	// Expose stands the live observability plane up next to the harness:
	// an expose.Server over the daemon-side registry with breaker- and
	// backlog-aware readiness, polled after every tick into
	// Result.ReadyStates. The poll is an HTTP GET over a real socket —
	// wall-clock, so expose scenarios assert state transitions (ready →
	// not-ready → ready), never tick-exact timing.
	Expose bool
	// Breaker enables the client's circuit breaker. Breaker cooldowns are
	// wall-clock, so recovery timing can shift semantic outcomes near
	// fault boundaries; the deterministic-replay scenarios keep it off
	// and the breaker machine is verified by its own oracle instead.
	Breaker bool
	// Durable backs the tsdb server with a WAL+snapshot data directory so
	// kill/restart faults exercise crash recovery: a kill crashes the
	// database (discarding whatever the fsync policy had not yet made
	// stable) and a restart reopens it from the same directory.
	// Filesystem paths never enter the event log, so determinism holds.
	Durable bool
	// Fsync is the durability policy for Durable scenarios: "always",
	// "interval" or "never" ("" = always). With "always" the durable
	// recovery oracle asserts zero acknowledged loss across kills.
	Fsync string
	// QueryEveryTick issues one wire-level aggregate query per completed
	// tick through the resilient tsdb client (count+mean over the first
	// session measurement), exercising the query engine under the same
	// fault schedule the writes face. Outcomes land in
	// Result.QueryOutcomes ONLY, never the event log: whether a query
	// succeeds during a partition window depends on wall-clock read
	// timeouts, and the log must replay byte-identically.
	QueryEveryTick bool
}

// defaultMetrics is the harness load when Scenario.Load.Metrics is empty.
func defaultMetrics() []string {
	return []string{machine.MetricCPUIdle, machine.MetricCPUUser}
}

// preset resolves the scenario's topology preset.
func (sc Scenario) preset() string {
	if sc.Preset == "" {
		return topo.PresetICL
	}
	return sc.Preset
}

// pipeline resolves the pipeline model: explicit override, else the
// paper-calibrated defaults reseeded from the scenario.
func (sc Scenario) pipeline() telemetry.PipelineConfig {
	if sc.Pipeline != nil {
		return *sc.Pipeline
	}
	cfg := telemetry.DefaultPipeline()
	cfg.Seed = sc.Seed
	cfg.Degraded = sc.Degraded
	cfg.JournalCap = sc.JournalCap
	return cfg
}

// FromSeed derives a complete chaos scenario from one seed: load,
// sampling frequency, a kill/restart outage window and a connection
// drop, all drawn from the seeded RNG. The same seed always yields the
// same scenario — the printed repro is the whole bug report.
func FromSeed(seed uint64) Scenario {
	rng := resilience.NewRNG(seed)
	ticks := 18 + rng.Uint64()%12 // 18..29
	freqs := []float64{10, 25, 50}
	killAt := 3 + rng.Uint64()%4             // 3..6
	restartAt := killAt + 3 + rng.Uint64()%4 // kill+3..kill+6
	// Two draws once scheduled the retired docdb outage. They are still
	// drawn so that every seed keeps the drop tick and frequency it had:
	// a seed-pinned test goes on exercising the schedule it always did.
	rng.Uint64()
	rng.Uint64()
	dropAt := restartAt + 2 + rng.Uint64()%3
	return Scenario{
		Seed: seed,
		Load: Load{
			FreqHz: freqs[rng.Uint64()%uint64(len(freqs))],
			Ticks:  ticks,
		},
		Degraded:   true,
		JournalCap: 256,
		Faults: []FaultEvent{
			{AtTick: killAt, Kind: FaultKillTSDB},
			{AtTick: restartAt, Kind: FaultRestartTSDB},
			{AtTick: dropAt, Kind: FaultDropTSDBConns},
		},
		Tracing: true,
	}
}

// DurableFromSeed derives the crash-recovery chaos scenario from one
// seed: the FromSeed schedule re-rooted onto a WAL-backed server with
// fsync=always, plus a bad WAL tail while the server is down — the
// residue of dying mid-append — which the restart must truncate away.
// Under fsync=always the durable recovery oracle then demands zero
// acknowledged loss and zero duplication across the kill.
func DurableFromSeed(seed uint64) Scenario {
	sc := FromSeed(seed)
	sc.Durable = true
	sc.Fsync = "always"
	var kill uint64
	for _, f := range sc.Faults {
		if f.Kind == FaultKillTSDB {
			kill = f.AtTick
		}
	}
	// FromSeed guarantees restart >= kill+3, so kill+1 always lands
	// inside the down window. One bad tail per window: recovery truncates
	// exactly one torn/corrupt tail; stacking two would bury the first
	// mid-file, which is (correctly) a hard corruption error, not a
	// recoverable crash residue. The seed picks the tail's flavour.
	tailFault := FaultTornTSDBWAL
	if seed%2 == 1 {
		tailFault = FaultCorruptTailTSDBWAL
	}
	sc.Faults = append(sc.Faults, FaultEvent{AtTick: kill + 1, Kind: tailFault})
	return sc
}

// Replay re-runs the scenario derived from seed — the one-line repro a
// failing chaos test prints. The returned result carries the event log
// and every oracle input.
func Replay(seed uint64) (*Result, error) {
	return Run(FromSeed(seed))
}

// ReplayDurable is Replay over the durable scenario derivation.
func ReplayDurable(seed uint64) (*Result, error) {
	return Run(DurableFromSeed(seed))
}

// ReproLine renders the repro invocation a failure report should carry.
func ReproLine(seed uint64) string {
	return fmt.Sprintf("testkit.Replay(0x%x)", seed)
}
