package testkit

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pmove/internal/introspect/traceexport"
	"pmove/internal/resilience"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// Oracles are invariants over a completed simulation — conservation laws
// that must hold for every scenario, not expectations about one schedule.
// A violated oracle plus the scenario seed is a complete bug report.

// CheckConservation asserts the session's point conservation law: every
// expected data point — plus any backlog recovered from a predecessor's
// on-disk spill journal — is accounted for exactly once as inserted
// (which includes zero-filled and replayed points), lost to
// backpressure, evicted from a full journal, or still pending in the
// journal.
//
//	Expected + RecoveredSpill == Inserted + Lost + SpillDropped + Pending
//
// An aborted session (non-degraded scenario whose sink died) is exempt:
// the aborting report's points are the documented leak.
func CheckConservation(r *Result) error {
	if r.SessionErr != nil {
		return nil
	}
	c := r.Collector
	got := c.Inserted + c.Lost + c.SpillDropped + c.PendingSpillFields()
	if c.Expected+c.RecoveredSpill != got {
		return fmt.Errorf("conservation violated: expected %d + recovered %d != inserted %d + lost %d + evicted %d + pending %d = %d",
			c.Expected, c.RecoveredSpill, c.Inserted, c.Lost, c.SpillDropped, c.PendingSpillFields(), got)
	}
	if c.Zeros > c.Expected {
		// Zero-batched points follow the same insert/spill/evict paths as
		// real ones, so Zeros bounds against Expected, not Inserted.
		return fmt.Errorf("conservation violated: zeros %d > expected %d", c.Zeros, c.Expected)
	}
	if c.Replayed > c.Inserted {
		return fmt.Errorf("conservation violated: replayed %d > inserted %d (replays are a subset of inserted)", c.Replayed, c.Inserted)
	}
	return nil
}

// LegalBreakerTransition reports whether a circuit breaker may move from
// one observed state to another in a single step. half-open may remain
// half-open across observations (one probe in flight), closed never jumps
// straight to half-open, and open never jumps straight to closed.
func LegalBreakerTransition(from, to resilience.BreakerState) bool {
	switch from {
	case resilience.BreakerClosed:
		return to == resilience.BreakerClosed || to == resilience.BreakerOpen
	case resilience.BreakerOpen:
		return to == resilience.BreakerOpen || to == resilience.BreakerHalfOpen
	case resilience.BreakerHalfOpen:
		return true // probe outcome: closed (success), open (failure), or still probing
	default:
		return false
	}
}

// CheckBreakerStates asserts every per-tick breaker observation is a
// known state. Consecutive snapshots are NOT checked pairwise: a tick can
// span several transitions (open → half-open → closed), so snapshots only
// bound, never enumerate, the walk. Single-step legality is the
// transition-level oracle (LegalBreakerTransition) driven directly in
// tests against the breaker itself.
func CheckBreakerStates(r *Result) error {
	for i, s := range r.BreakerStates {
		switch s {
		case resilience.BreakerClosed, resilience.BreakerOpen, resilience.BreakerHalfOpen:
		default:
			return fmt.Errorf("tick %d: unknown breaker state %q", i+1, s)
		}
	}
	return nil
}

// CheckNoDuplicateInserts asserts the reconnect-with-resync guarantee
// held: no measurement holds two points with the same timestamp. The
// session writes one point per measurement per virtual tick, so a
// duplicate timestamp means a retried write was applied twice — exactly
// the desync bug the PING resync exists to prevent. Valid because the
// harness applies faults only at tick boundaries: an acknowledged write
// is never severed mid-flight.
func CheckNoDuplicateInserts(r *Result) error {
	for _, m := range r.Measurements {
		res, err := r.ServerDB.ExecuteContext(context.Background(), tsdb.QueryRequest{Query: &tsdb.Query{Fields: []string{"*"}, Measurement: m}})
		if err != nil {
			return fmt.Errorf("duplicate oracle: query %s: %w", m, err)
		}
		seen := make(map[int64]int, len(res.Rows))
		for _, row := range res.Rows {
			seen[row.Time]++
			if seen[row.Time] > 1 {
				return fmt.Errorf("duplicate insert: measurement %s holds %d points at t=%d",
					m, seen[row.Time], row.Time)
			}
		}
	}
	return nil
}

// CheckAttribution asserts latency conservation for every tick of every
// assembled trace: the per-hop attribution components must sum to the
// end-to-end wire time (they partition it; Sum differs only when clock
// anomalies forced clamping, bounded here at 5%). Each subtree under
// drive's root span is checked on its own, so an error in one tick is
// not averaged away over the run.
func CheckAttribution(r *Result) error {
	for _, tr := range r.Traces {
		var units []*traceexport.Node
		for _, root := range tr.Roots {
			if root.Span.Name == rootSpan {
				units = append(units, root.Children...)
			} else {
				units = append(units, root)
			}
		}
		for _, n := range append(units, tr.Orphans...) {
			a := traceexport.Attribute(&traceexport.Trace{Roots: []*traceexport.Node{n}})
			if a.EndToEndSeconds <= 0 {
				continue // no wire hops in this subtree
			}
			if diff := math.Abs(a.Sum() - a.EndToEndSeconds); diff > 0.05*a.EndToEndSeconds {
				return fmt.Errorf("attribution violated: trace %s span %s sums hops to %.9fs but spans %.9fs end-to-end",
					tr.ID, n.Span.Name, a.Sum(), a.EndToEndSeconds)
			}
		}
	}
	return nil
}

// CheckDurableRecovery asserts the durability contract on Durable
// scenarios running fsync=always: after any number of kill/restart
// cycles (crash + WAL/snapshot recovery), the server-side tsdb holds
// exactly as many data points as the collector had acknowledged —
// fewer means a crash lost an acknowledged write, more means recovery
// replayed one twice. Policies other than always are allowed to lose
// their unsynced tail, so only the clean-prefix property (restart
// succeeding at all) applies to them and the count is not checked.
func CheckDurableRecovery(r *Result) error {
	if !r.Scenario.Durable || r.SessionErr != nil {
		return nil
	}
	pol, err := storage.ParseFsyncPolicy(r.Scenario.Fsync)
	if err != nil || pol != storage.FsyncAlways {
		return nil
	}
	var got uint64
	for _, m := range r.Measurements {
		n, _ := r.ServerDB.CountValues(m)
		got += n
	}
	if got != r.Collector.Inserted {
		return fmt.Errorf("durable recovery violated: server holds %d data points, collector acknowledged %d (fsync=always: no loss, no duplicates)",
			got, r.Collector.Inserted)
	}
	return nil
}

// CheckStoreStats asserts the engine's accounting: the cumulative
// Stats() counters must equal the sum of per-measurement CountValues
// over everything the server stores. A mismatch means the write path
// lost or double-counted a write. Valid whenever no retention
// enforcement ran (the harness never does): cumulative write counters
// and resident data then coincide.
func CheckStoreStats(r *Result) error {
	_, values := r.ServerDB.Stats()
	var stored uint64
	for _, m := range r.ServerDB.Measurements() {
		n, _ := r.ServerDB.CountValues(m)
		stored += n
	}
	if stored != values {
		return fmt.Errorf("store stats violated: Stats() reports %d values but measurements hold %d",
			values, stored)
	}
	return nil
}

// Verify runs every applicable oracle and joins the violations. A nil
// return means the run upheld all conservation laws; a non-nil return
// plus ReproLine(seed) is the full bug report.
func (r *Result) Verify() error {
	return errors.Join(
		CheckConservation(r),
		CheckBreakerStates(r),
		CheckNoDuplicateInserts(r),
		CheckStoreStats(r),
		CheckAttribution(r),
		CheckDurableRecovery(r),
	)
}
