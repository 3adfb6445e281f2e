package telemetry

import (
	"context"
	"errors"
	"testing"
	"time"

	"pmove/internal/machine"
	"pmove/internal/resilience"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// chaosPolicy fails fast so the outage window stays cheap; the breaker is
// disabled so recovery is observed on the first post-restart write rather
// than after a real-time cooldown (the virtual clock outruns wall time).
func chaosPolicy() resilience.Policy {
	return resilience.Policy{
		DialTimeout:  time.Second,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		MaxRetries:   1,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Seed:         7,
	}
}

// chaosPipeline removes the simulated pipeline costs so every observed
// loss is attributable to the injected outage, not the Table III model.
func chaosPipeline() PipelineConfig {
	return PipelineConfig{Seed: 1}
}

// chaosSession builds a session shipping to the given sink.
func chaosSession(t *testing.T, sink PointSink, cfg PipelineConfig) *Session {
	t.Helper()
	m, err := machine.New(topo.MustPreset(topo.PresetICL), machine.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(nil, cfg)
	col.Sink = sink
	s, err := NewSession(NewPMCD(m), col, SessionConfig{
		Metrics: []string{machine.MetricCPUIdle},
		FreqHz:  10,
		Tag:     "chaos",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosKillWithoutDegradation is the baseline: the tsdb server dies
// mid-session and, with degradation off (the paper-faithful default), the
// session aborts with an error.
func TestChaosKillWithoutDegradation(t *testing.T) {
	db := tsdb.New()
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tsdb.DialPolicy(addr, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := chaosSession(t, c, chaosPipeline())
	if _, err := s.RunTicksContext(context.Background(), 5); err != nil {
		t.Fatalf("healthy phase failed: %v", err)
	}
	srv.Close() // kill the host TSDB mid-session
	if _, err := s.RunTicksContext(context.Background(), 5); err == nil {
		t.Fatal("session survived a dead sink with degradation off")
	}
}

// TestChaosKillRestartDegraded is the acceptance scenario: the tsdb
// server is killed and later restarted mid-session. With degraded mode on
// the session completes, the outage backlog spills to the journal and
// replays after the restart, and end-to-end loss is bounded and visible
// in the stats.
func TestChaosKillRestartDegraded(t *testing.T) {
	db := tsdb.New()
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tsdb.DialPolicy(addr, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := chaosPipeline()
	cfg.Degraded = true
	s := chaosSession(t, c, cfg)
	col := s.Collector

	// Phase 1: healthy.
	st1, err := s.RunTicksContext(context.Background(), 4)
	if err != nil {
		t.Fatalf("healthy phase: %v", err)
	}
	if st1.Inserted == 0 || st1.Spilled != 0 {
		t.Fatalf("healthy phase stats off: %+v", st1)
	}

	// Phase 2: the server dies; every report spills locally.
	srv.Close()
	st2, err := s.RunTicksContext(context.Background(), 4)
	if err != nil {
		t.Fatalf("outage phase aborted despite degraded mode: %v", err)
	}
	if st2.Spilled == 0 {
		t.Fatalf("outage produced no spills: %+v", st2)
	}
	if !col.Degraded() {
		t.Fatal("collector not marked degraded during outage")
	}
	if st2.Pending == 0 {
		t.Fatalf("no journal backlog after outage: %+v", st2)
	}

	// Phase 3: a fresh server on the same address with the same DB — the
	// resilient client reconnects, the journal replays, and new data
	// flows again.
	srv2 := tsdb.NewServer(db)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	st3, err := s.RunTicksContext(context.Background(), 4)
	if err != nil {
		t.Fatalf("recovery phase: %v", err)
	}
	if st3.Replayed == 0 {
		t.Fatalf("journal never replayed after restart: %+v", st3)
	}
	if st3.Pending != 0 {
		t.Fatalf("backlog left after recovery: %+v", st3)
	}
	if col.Degraded() {
		t.Fatal("collector still degraded after recovery")
	}

	// Bounded end-to-end loss: with pipeline costs zeroed and the journal
	// under its cap, every expected point was eventually inserted.
	if col.SpillDropped != 0 {
		t.Fatalf("journal evicted %d points below cap", col.SpillDropped)
	}
	if col.Lost != 0 {
		t.Fatalf("pipeline lost %d points with zero costs", col.Lost)
	}
	if col.Inserted != col.Expected {
		t.Fatalf("inserted %d of %d expected points", col.Inserted, col.Expected)
	}
	// The server-side DB holds at least the acked rows (at-least-once: a
	// retried write whose ack was lost may be duplicated, never fewer).
	// The collector counts fields; each cpu.idle report is one row of 16.
	pts, _ := db.Stats()
	if rows := col.Inserted / 16; pts < rows {
		t.Fatalf("server DB holds %d rows, collector acked %d", pts, rows)
	}
}

// TestChaosJournalCapBoundsLoss keeps the server down past the journal
// cap: the oldest points are evicted and counted, memory stays bounded,
// and the loss is exactly the evicted points.
func TestChaosJournalCapBoundsLoss(t *testing.T) {
	db := tsdb.New()
	srv := tsdb.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tsdb.DialPolicy(addr, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := chaosPipeline()
	cfg.Degraded = true
	cfg.JournalCap = 3 // reports, far below the outage length
	s := chaosSession(t, c, cfg)
	col := s.Collector

	srv.Close() // down from the first tick
	st, err := s.RunTicksContext(context.Background(), 10)
	if err != nil {
		t.Fatalf("outage run: %v", err)
	}
	if got := col.PendingSpill(); got != cfg.JournalCap {
		t.Fatalf("journal holds %d entries, cap is %d", got, cfg.JournalCap)
	}
	if st.SpillDropped == 0 {
		t.Fatal("cap never evicted despite a long outage")
	}
	// Conservation: every expected point was inserted, still journalled,
	// or evicted — nothing vanished unaccounted.
	var pendingFields uint64
	for _, p := range col.journal {
		pendingFields += uint64(len(p.Fields))
	}
	if col.Expected != col.Inserted+pendingFields+st.SpillDropped {
		t.Fatalf("points unaccounted: expected=%d inserted=%d pending=%d dropped=%d",
			col.Expected, col.Inserted, pendingFields, st.SpillDropped)
	}
}

// downSink refuses every write and counts the attempts.
type downSink struct{ writes int }

func (d *downSink) WriteBatchContext(context.Context, []tsdb.Point) error {
	d.writes++
	return errors.New("sink down")
}

// TestTickContextProbesLikeOneRun pins the stepped session against a
// dead sink: a degraded collector stepped with TickContext probes the
// sink once a tick and replays its backlog once more after the last, as
// one RunTicksContext call over the same ticks does, where a
// RunTicksContext call per tick would probe twice a tick.
func TestTickContextProbesLikeOneRun(t *testing.T) {
	cfg := chaosPipeline()
	cfg.Degraded = true
	const ticks = 4
	run := &downSink{}
	if _, err := chaosSession(t, run, cfg).RunTicksContext(context.Background(), ticks); err != nil {
		t.Fatal(err)
	}
	step := &downSink{}
	s := chaosSession(t, step, cfg)
	for tick := 1; tick <= ticks; tick++ {
		if err := s.TickContext(context.Background(), tick == ticks); err != nil {
			t.Fatal(err)
		}
	}
	if run.writes != ticks+1 || step.writes != run.writes {
		t.Fatalf("dead sink probed %d times stepped, %d in one run; want %d each",
			step.writes, run.writes, ticks+1)
	}
	if got := s.Collector.PendingSpill(); got != ticks {
		t.Fatalf("journal holds %d reports, want %d", got, ticks)
	}
}
