package telemetry

import (
	"context"
	"fmt"
	"sort"
)

// SessionConfig describes one sampling session: which metrics to sample at
// what frequency for how long, shipping to which collector.
type SessionConfig struct {
	Metrics []string
	FreqHz  float64
	Tag     string // observation tag written to every point
	// DurationSeconds bounds a RunContext session, which refuses 0;
	// RunTicksContext ignores it and runs the ticks it is asked for.
	DurationSeconds float64
}

// SessionStats summarises a finished session — one Table III row.
type SessionStats struct {
	Host     string
	FreqHz   float64
	NMetrics int
	Ticks    uint64
	Expected uint64
	Inserted uint64
	Zeros    uint64
	Lost     uint64
	// Degraded-mode counters (zero unless PipelineConfig.Degraded): points
	// spilled to the outage journal, spilled points replayed into the
	// sink, journal points evicted by the cap, and the backlog still
	// awaiting replay when the session ended. Spilled/Replayed/
	// SpillDropped count data points (fields); Pending counts journal
	// entries (one per sample), matching JournalCap's unit.
	Spilled      uint64
	Replayed     uint64
	SpillDropped uint64
	Pending      uint64
	// Recovered is the collector's cumulative count of data points
	// reloaded from the on-disk spill journal at startup (OpenJournal) —
	// the backlog this collector inherited from a crashed predecessor.
	// Unlike the other counters it is not a per-session delta: recovery
	// happens before the first session, and the inherited debt is
	// relevant to every session that replays it.
	Recovered uint64
	// Tput is inserted data points per second; ATput excludes zeros
	// (Table III's "actual" throughput).
	Tput         float64
	ATput        float64
	LossPct      float64
	LossPlusZPct float64
}

// Session is a sampling run binding a target's PMCD to a host collector.
type Session struct {
	PMCD      *PMCD
	Collector *Collector
	Cfg       SessionConfig
}

// NewSession validates the configuration and builds a session.
func NewSession(p *PMCD, c *Collector, cfg SessionConfig) (*Session, error) {
	if cfg.FreqHz <= 0 {
		return nil, fmt.Errorf("telemetry: sampling frequency must be positive, got %g", cfg.FreqHz)
	}
	if len(cfg.Metrics) == 0 {
		return nil, fmt.Errorf("telemetry: session has no metrics")
	}
	route := map[string]bool{}
	for _, m := range p.Metrics() {
		route[m] = true
	}
	for _, m := range cfg.Metrics {
		if !route[m] {
			return nil, fmt.Errorf("telemetry: no agent serves metric %q", m)
		}
	}
	return &Session{PMCD: p, Collector: c, Cfg: cfg}, nil
}

// RunContext executes the session for its configured duration, driving
// the machine's virtual clock tick by tick, and returns the statistics.
// Cancelling ctx stops the loop at the next tick.
func (s *Session) RunContext(ctx context.Context) (SessionStats, error) {
	if s.Cfg.DurationSeconds <= 0 {
		return SessionStats{}, fmt.Errorf("telemetry: session duration must be positive")
	}
	ticks := uint64(s.Cfg.DurationSeconds * s.Cfg.FreqHz)
	return s.RunTicksContext(ctx, ticks)
}

// RunTicksContext executes exactly n sampling ticks, checking ctx before
// each one so a cancelled caller stops within one tick.
func (s *Session) RunTicksContext(ctx context.Context, n uint64) (SessionStats, error) {
	return s.runTicks(ctx, n, true)
}

// TickContext executes one tick of a session its caller steps tick by
// tick. Only the last tick gives a degraded backlog the closing replay,
// so the sink is probed once a tick, as in one RunTicksContext call.
func (s *Session) TickContext(ctx context.Context, last bool) error {
	_, err := s.runTicks(ctx, 1, last)
	return err
}

func (s *Session) runTicks(ctx context.Context, n uint64, catchUp bool) (stats SessionStats, err error) {
	ctx, span := s.Collector.Self.StartSpan(ctx, "telemetry.session")
	defer func() { span.End(err) }()
	m := s.PMCD.Machine()
	interval := 1 / s.Cfg.FreqHz
	start := m.Now()
	zeroProb := s.Collector.Cfg.ZeroBatchProbability(interval)
	metrics := append([]string(nil), s.Cfg.Metrics...)
	sort.Strings(metrics)

	startExpected, startInserted := s.Collector.Expected, s.Collector.Inserted
	startZeros, startLost := s.Collector.Zeros, s.Collector.Lost
	startSpilled, startReplayed := s.Collector.Spilled, s.Collector.Replayed
	startSpillDropped := s.Collector.SpillDropped

	for tick := uint64(1); tick <= n; tick++ {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("telemetry: session: %w", cerr)
			return SessionStats{}, err
		}
		t := start + float64(tick)*interval
		if aerr := m.AdvanceTo(t); aerr != nil {
			err = aerr
			return SessionStats{}, err
		}
		samples := make([]Sample, 0, len(metrics))
		for _, metric := range metrics {
			sm, serr := s.PMCD.Sample(metric)
			if serr != nil {
				err = serr
				return SessionStats{}, err
			}
			samples = append(samples, sm)
		}
		zeroBatch := zeroProb > 0 && s.Collector.jitter() < zeroProb
		if oerr := s.Collector.OfferContext(ctx, t, samples, s.Cfg.Tag, zeroBatch); oerr != nil {
			err = oerr
			return SessionStats{}, err
		}
	}

	// Final catch-up: a sink that recovered late gets one more chance to
	// absorb the outage backlog before the session reports.
	if catchUp && s.Collector.Cfg.Degraded && s.Collector.PendingSpill() > 0 {
		s.Collector.ReplayContext(ctx)
	}

	st := SessionStats{
		Host:         m.System().Hostname,
		FreqHz:       s.Cfg.FreqHz,
		NMetrics:     len(metrics),
		Ticks:        n,
		Expected:     s.Collector.Expected - startExpected,
		Inserted:     s.Collector.Inserted - startInserted,
		Zeros:        s.Collector.Zeros - startZeros,
		Lost:         s.Collector.Lost - startLost,
		Spilled:      s.Collector.Spilled - startSpilled,
		Replayed:     s.Collector.Replayed - startReplayed,
		SpillDropped: s.Collector.SpillDropped - startSpillDropped,
		Pending:      uint64(s.Collector.PendingSpill()),
		Recovered:    s.Collector.RecoveredSpill,
	}
	dur := float64(n) * interval
	if dur > 0 {
		st.Tput = float64(st.Inserted) / dur
		st.ATput = float64(st.Inserted-st.Zeros) / dur
	}
	if st.Expected > 0 {
		st.LossPct = 100 * float64(st.Lost) / float64(st.Expected)
		st.LossPlusZPct = 100 * float64(st.Lost+st.Zeros) / float64(st.Expected)
	}
	return st, nil
}
