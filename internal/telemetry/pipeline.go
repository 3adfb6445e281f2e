package telemetry

import (
	"context"
	"fmt"
	"math"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// PipelineConfig models the host-side shipment path: the network link
// between target and host and the database insertion cost. PCP "performs
// sampling instead of recording performance events over time" with no
// buffering, so a report that arrives while the previous one is still
// being inserted is lost — the Table III mechanism.
type PipelineConfig struct {
	// LinkMbps is the host-target link (the paper's testbed used a 100
	// Mbit cabled connection).
	LinkMbps float64
	// InsertBaseSeconds is the fixed per-report DB insertion cost.
	InsertBaseSeconds float64
	// InsertPerValueSeconds is the marginal insertion cost per data point.
	InsertPerValueSeconds float64
	// StallProb is the probability a report hits a transient stall
	// (writeback, GC) multiplying its cost by StallFactor.
	StallProb   float64
	StallFactor float64
	// CounterRefreshSeconds is the PMU readout refresh period: polling
	// faster than this returns batched zeros ("we observed batched zero
	// values with high frequency").
	CounterRefreshSeconds float64
	// Buffered enables a hypothetical report queue in front of the DB:
	// reports arriving while the previous insert is in flight are queued
	// instead of dropped. PCP has no such buffer — this switch exists for
	// the ablation study isolating that design choice (Table III's losses
	// vanish with it; latency grows instead).
	Buffered bool
	// Degraded enables graceful degradation: a report whose sink write
	// fails (host TSDB unreachable) is spilled to a bounded local journal
	// and replayed once the sink answers again, instead of aborting the
	// session. Like Buffered this is opt-in — the paper-faithful default
	// keeps the unbuffered fail/loss semantics.
	Degraded bool
	// JournalCap bounds the spill journal in points; 0 means
	// DefaultJournalCap. When the journal is full the oldest spilled
	// point is dropped (and counted), keeping memory bounded through an
	// arbitrarily long outage.
	JournalCap int
	// JournalDir, when non-empty, persists the spill journal to a
	// storage data directory (WAL + snapshot, as the databases' are) so
	// an outage backlog survives a collector crash. Opened by
	// OpenJournal; recovery is at-least-once up to JournalCap.
	JournalDir string
	// Seed drives the deterministic jitter.
	Seed uint64
}

// DefaultJournalCap is the spill journal bound when JournalCap is unset.
const DefaultJournalCap = 4096

// DefaultPipeline returns the configuration calibrated against the
// paper's testbed (100 Mbit link, spinning-disk-backed InfluxDB on the
// host).
func DefaultPipeline() PipelineConfig {
	return PipelineConfig{
		LinkMbps:              100,
		InsertBaseSeconds:     3e-3,
		InsertPerValueSeconds: 75e-6,
		StallProb:             0.04,
		StallFactor:           4,
		CounterRefreshSeconds: 0.048,
		Seed:                  1,
	}
}

// PointSink is where the collector lands points: the store's one write
// contract, which the embedded tsdb.DB (group-committed WAL append) and
// the remote tsdb.Client (one WRITEB round-trip) provide.
// Each tick's report ships as one batch — one round-trip and one group
// commit per tick instead of |instance domain|.
type PointSink = tsdb.BatchWriter

// BatchPointSink is PointSink under the name the frozen benchmark
// package (internal/bench) still spells.
type BatchPointSink = PointSink

// Collector is the host-side sink: it owns the point destination and
// the busy-until state of the unbuffered pipeline.
type Collector struct {
	// Sink is where points are written: the embedded DB NewCollector was
	// given, or a resilient remote client set in its place.
	Sink PointSink
	Cfg  PipelineConfig
	// Self, when non-nil, mirrors the collector's counters into the
	// daemon's self-observability registry under telemetry.* and opens
	// child spans around report offers and journal replays. Nil costs
	// nothing (all introspect methods are nil-safe).
	Self *introspect.Introspector
	// Log, when non-nil, receives structured records for degradation
	// transitions (sink down → spilling, journal drained, cap
	// evictions), trace-correlated to the offer that observed them.
	Log *logbuf.Logger

	busyUntil float64
	seq       uint64
	// Each offered metric's measurement name, and the last tag's map.
	names map[string]string
	tags  map[string]string

	// journal holds points spilled while the sink was unreachable
	// (Degraded mode only), bounded by JournalCap. journalStore mirrors
	// it on disk when Cfg.JournalDir is set, with journalAppends records
	// logged since its last compaction (see journal.go).
	journal        []tsdb.Point
	degraded       bool
	journalStore   *storage.Store
	journalAppends int

	// Cumulative statistics.
	Expected  uint64 // data points the sampler should have produced
	Inserted  uint64 // data points actually written
	Zeros     uint64 // inserted points whose value was a batched zero
	Lost      uint64 // data points dropped because the pipeline was busy
	NetBytes  int64
	DiskBytes int64
	// Degradation statistics (Degraded mode only).
	Spilled      uint64 // points written to the local journal
	Replayed     uint64 // journal points later inserted into the sink
	SpillDropped uint64 // journal points evicted by the cap — lost for good
	Degradations uint64 // times the collector entered degraded mode
	// RecoveredSpill counts data points reloaded from the on-disk
	// journal by OpenJournal. They were Expected by a previous collector
	// incarnation, so they join Expected on the left of the conservation
	// law: Expected + RecoveredSpill == Inserted + Lost + SpillDropped +
	// PendingSpillFields().
	RecoveredSpill uint64
	// QueuedDelay is the backlog the most recent report waited behind
	// (buffered mode only); MaxLagSeconds the worst insertion lag seen.
	QueuedDelay   float64
	MaxLagSeconds float64
}

// NewCollector builds a collector writing to db; a nil db leaves Sink
// for the caller to set.
func NewCollector(db *tsdb.DB, cfg PipelineConfig) *Collector {
	c := &Collector{Cfg: cfg, seq: cfg.Seed, names: map[string]string{}}
	if db != nil { // a nil *tsdb.DB must not become a non-nil Sink
		c.Sink = db
	}
	return c
}

// Degraded reports whether the collector is currently spilling.
func (c *Collector) Degraded() bool { return c.degraded }

// PendingSpill returns how many journalled points await replay.
func (c *Collector) PendingSpill() int { return len(c.journal) }

// PendingSpillFields returns the journal backlog in data points (fields),
// the unit the Expected/Inserted/Lost counters use — the term the
// end-to-end conservation law needs:
//
//	Expected == Inserted + Lost + SpillDropped + PendingSpillFields()
func (c *Collector) PendingSpillFields() uint64 {
	var n uint64
	for _, p := range c.journal {
		n += uint64(len(p.Fields))
	}
	return n
}

// journalCap resolves the configured bound.
func (c *Collector) journalCap() int {
	if c.Cfg.JournalCap > 0 {
		return c.Cfg.JournalCap
	}
	return DefaultJournalCap
}

// spill journals a point the sink refused, evicting the oldest entry if
// the journal is at capacity.
func (c *Collector) spill(ctx context.Context, p tsdb.Point) {
	reg := c.Self.Metrics()
	if !c.degraded {
		c.degraded = true
		c.Degradations++
		reg.Counter("telemetry.degradations").Inc()
		c.Log.Warn(ctx, "sink unreachable: entering degraded mode, spilling to journal",
			"journal_cap", fmt.Sprint(c.journalCap()))
	}
	if len(c.journal) >= c.journalCap() {
		dropped := c.journal[0]
		c.journal = c.journal[1:]
		c.SpillDropped += uint64(len(dropped.Fields))
		reg.Counter("telemetry.journal.dropped").Add(uint64(len(dropped.Fields)))
		c.Log.Warn(ctx, "journal at capacity: oldest spilled point dropped",
			"dropped_fields", fmt.Sprint(len(dropped.Fields)))
	}
	c.journal = append(c.journal, p)
	c.persistSpill(p)
	c.Spilled += uint64(len(p.Fields))
	reg.Counter("telemetry.journal.spilled").Add(uint64(len(p.Fields)))
	reg.Gauge("telemetry.journal.pending").Set(float64(len(c.journal)))
}

// ReplayContext drains the journal into the sink, oldest first, stopping
// at the first failure (the sink is still down). It returns how many
// points remain. OfferContext replays opportunistically before each new
// report, so a recovered sink catches up within one tick; call
// ReplayContext directly to flush at session end. ctx reaches the sink
// writes and parents the replay span.
func (c *Collector) ReplayContext(ctx context.Context) int {
	reg := c.Self.Metrics()
	ctx, span := c.Self.StartSpan(ctx, "telemetry.replay")
	defer span.End(nil)
	wasDegraded := c.degraded
	before := len(c.journal)
	defer func() {
		// Keep the on-disk journal in lock-step with the live backlog:
		// anything replayed this call is compacted away so a restart
		// does not re-deliver it.
		if len(c.journal) != before {
			c.compactJournal()
		}
	}()
	// One point per write, so a sink that fails mid-drain leaves exactly
	// the undelivered suffix journalled.
	for len(c.journal) > 0 {
		p := c.journal[0]
		if err := c.Sink.WriteBatchContext(ctx, c.journal[:1:1]); err != nil {
			reg.Gauge("telemetry.journal.pending").Set(float64(len(c.journal)))
			return len(c.journal)
		}
		c.journal = c.journal[1:]
		nv := uint64(len(p.Fields))
		c.Inserted += nv
		c.Replayed += nv
		reg.Counter("telemetry.points.inserted").Add(nv)
		reg.Counter("telemetry.journal.replayed").Add(nv)
	}
	c.journal = nil
	c.degraded = false
	reg.Gauge("telemetry.journal.pending").Set(0)
	if wasDegraded {
		c.Log.Info(ctx, "journal drained: leaving degraded mode",
			"replayed", fmt.Sprint(before))
	}
	return 0
}

func (c *Collector) jitter() float64 {
	c.seq++
	x := c.seq * 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// reportCost returns the wall time one report of nValues/nBytes occupies
// the pipeline.
func (c *Collector) reportCost(nValues int, nBytes int64) float64 {
	cost := c.Cfg.InsertBaseSeconds + float64(nValues)*c.Cfg.InsertPerValueSeconds
	if c.Cfg.LinkMbps > 0 {
		cost += float64(nBytes) * 8 / (c.Cfg.LinkMbps * 1e6)
	}
	// Deterministic jitter: ±30% plus occasional stalls.
	u := c.jitter()
	cost *= 0.85 + 0.3*u
	if c.Cfg.StallProb > 0 && c.jitter() < c.Cfg.StallProb {
		cost *= c.Cfg.StallFactor
	}
	return cost
}

// OfferContext presents one report (all samples of one tick) to the
// pipeline at virtual time now. If the pipeline is still busy with the
// previous report, the whole report is dropped (no buffer). Otherwise the
// samples are written with the tick's timestamp and the pipeline is busy
// for the report's cost. zeroBatch marks the PMU-sourced values as a
// batched-zero readout: they are inserted with value 0. The sink write
// receives ctx, and the report lands as a child span of the surrounding
// daemon operation when self-observability is on.
func (c *Collector) OfferContext(ctx context.Context, now float64, samples []Sample, tag string, zeroBatch bool) (err error) {
	reg := c.Self.Metrics()
	ctx, span := c.Self.StartSpan(ctx, "telemetry.offer")
	offerStart := time.Now()
	defer func() {
		reg.Histogram("telemetry.offer.seconds", introspect.DefaultLatencyBounds...).
			Observe(time.Since(offerStart).Seconds())
		span.End(err)
	}()
	nValues := 0
	var nBytes int64
	for _, s := range samples {
		nValues += len(s.Values)
		nBytes += wireBytes(s)
	}
	c.Expected += uint64(nValues)
	reg.Counter("telemetry.points.expected").Add(uint64(nValues))
	if now < c.busyUntil {
		if !c.Cfg.Buffered {
			c.Lost += uint64(nValues)
			reg.Counter("telemetry.points.lost").Add(uint64(nValues))
			return nil
		}
		// Buffered ablation: the report queues behind the in-flight one;
		// insertion latency accumulates instead of data being lost.
		c.QueuedDelay = c.busyUntil - now
	} else {
		c.QueuedDelay = 0
	}
	// Catch up on any outage backlog before shipping fresh data, so
	// replayed history lands ahead of newer points.
	if c.Cfg.Degraded && len(c.journal) > 0 {
		c.ReplayContext(ctx)
	}
	ts := int64(now * 1e9)
	if c.tags["tag"] != tag {
		c.tags = tagMap(tag)
	}
	pts := make([]tsdb.Point, 0, len(samples))
	for _, s := range samples {
		if zeroBatch {
			zeroed := Sample{Metric: s.Metric, Values: make(map[string]float64, len(s.Values))}
			for f := range s.Values {
				zeroed.Values[f] = 0
			}
			s = zeroed
		}
		if _, ok := c.names[s.Metric]; !ok {
			c.names[s.Metric] = tsdb.MeasurementName(s.Metric)
		}
		pts = append(pts, tsdb.Point{Measurement: c.names[s.Metric], Tags: c.tags, Fields: s.Values, Time: ts})
	}
	// The whole tick ships as one batch: one round-trip / one group
	// commit, and — because the batch path is atomic and idempotent under
	// retry — it lands whole, spills whole, or fails whole, which is the
	// same granularity a lost tick already has.
	if c.Cfg.Degraded && c.degraded {
		// Sink known down (the opportunistic Replay above just probed
		// it): journal without burning the client's retry budget.
		for _, p := range pts {
			c.spill(ctx, p)
		}
	} else if werr := c.Sink.WriteBatchContext(ctx, pts); werr != nil {
		if !c.Cfg.Degraded {
			err = fmt.Errorf("telemetry: batch insert (%d points): %w", len(pts), werr)
			return err
		}
		for _, p := range pts {
			c.spill(ctx, p)
		}
	} else {
		c.Inserted += uint64(nValues)
		reg.Counter("telemetry.points.inserted").Add(uint64(nValues))
	}
	if zeroBatch {
		c.Zeros += uint64(nValues)
		reg.Counter("telemetry.points.zeros").Add(uint64(nValues))
	}
	c.NetBytes += nBytes
	c.DiskBytes += int64(nValues) * 48 // stored point footprint
	start := now
	if c.Cfg.Buffered && c.busyUntil > now {
		start = c.busyUntil
	}
	c.busyUntil = start + c.reportCost(nValues, nBytes)
	if lag := c.busyUntil - now; lag > c.MaxLagSeconds {
		c.MaxLagSeconds = lag
	}
	return nil
}

// LossRate returns the fraction of expected points lost in transmission.
func (c *Collector) LossRate() float64 {
	if c.Expected == 0 {
		return 0
	}
	return float64(c.Lost) / float64(c.Expected)
}

// LossPlusZeroRate returns the Table III "L+Z%" column: the fraction of
// expected data points that were either lost or inserted as zeros.
func (c *Collector) LossPlusZeroRate() float64 {
	if c.Expected == 0 {
		return 0
	}
	return float64(c.Lost+c.Zeros) / float64(c.Expected)
}

// ZeroBatchProbability returns the probability a readout at the given
// sampling interval returns batched zeros: polling faster than the
// counter refresh leaves a fraction 1-interval/refresh of polls without
// fresh data.
func (cfg *PipelineConfig) ZeroBatchProbability(intervalSeconds float64) float64 {
	if cfg.CounterRefreshSeconds <= 0 || intervalSeconds >= cfg.CounterRefreshSeconds {
		return 0
	}
	return math.Min(0.9, 1-intervalSeconds/cfg.CounterRefreshSeconds)
}
