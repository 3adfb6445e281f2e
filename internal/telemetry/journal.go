package telemetry

import (
	"fmt"

	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// On-disk spill journal: an opt-in durability layer under the degraded
// mode's in-memory outage journal. When PipelineConfig.JournalDir is
// set, that directory is a storage.Store (wal.log + snapshot.db, the
// layout of the database directories): every spilled point is appended
// as one line-protocol record, so a collector that crashes mid-outage
// resumes the backlog on restart instead of silently forgetting
// acknowledged-as-spilled data. At every replay boundary, and whenever
// the records appended since the last compaction reach JournalCap, the
// live backlog is compacted into the snapshot as one batch body — so
// the directory holds under 2 × JournalCap points however long the
// outage. Recovery is at-least-once: a crash between a sink write and
// the compaction can re-deliver a point, never lose one.

// OpenJournal binds the collector to the on-disk spill journal in
// Cfg.JournalDir, creating the directory as needed, and reloads any
// backlog a previous incarnation left behind into the in-memory journal
// (the snapshot's points, then the records after it, re-applying the
// cap oldest first). It returns how many journal entries were
// recovered. No-op returning 0 when JournalDir is unset. Call once
// before the first session; points recovered here are counted in
// RecoveredSpill, the term that joins Expected on the left side of the
// conservation law.
func (c *Collector) OpenJournal() (int, error) {
	if c.Cfg.JournalDir == "" {
		return 0, nil
	}
	st, rec, err := storage.Open(c.Cfg.JournalDir, storage.FsyncAlways)
	if err != nil {
		return 0, fmt.Errorf("telemetry: open journal: %w", err)
	}
	var lines [][]byte
	if len(rec.Snapshot) > 0 {
		if lines, err = storage.DecodeBatchBody(rec.Snapshot); err != nil {
			st.Close()
			return 0, fmt.Errorf("telemetry: journal snapshot: %w", err)
		}
	}
	for _, r := range rec.Records {
		lines = append(lines, r.Data)
	}
	reg := c.Self.Metrics()
	for i, line := range lines {
		p, derr := tsdb.DecodeLine(string(line))
		if derr != nil {
			st.Close()
			return 0, fmt.Errorf("telemetry: journal entry %d: %w", i, derr)
		}
		c.journal = append(c.journal, p)
		c.RecoveredSpill += uint64(len(p.Fields))
	}
	for len(c.journal) > c.journalCap() {
		dropped := c.journal[0]
		c.journal = c.journal[1:]
		c.SpillDropped += uint64(len(dropped.Fields))
		reg.Counter("telemetry.journal.dropped").Add(uint64(len(dropped.Fields)))
	}
	c.journalStore = st
	c.journalAppends = len(rec.Records)
	if len(c.journal) > 0 {
		// A recovered backlog means the last incarnation died degraded;
		// resume in that state so Offer replays it ahead of fresh data.
		c.degraded = true
	}
	reg.Counter("telemetry.journal.recovered").Add(uint64(len(lines)))
	reg.Gauge("telemetry.journal.pending").Set(float64(len(c.journal)))
	return len(lines), nil
}

// JournalPath returns the on-disk journal's log path ("" when not open).
func (c *Collector) JournalPath() string { return c.journalStore.WALPath() }

// persistSpill appends one spilled point to the on-disk journal, and
// compacts it once the appends since the last compaction reach the cap.
// Spill itself must not fail — a persistence error is counted, not
// returned, and degrades that point to memory-only durability.
func (c *Collector) persistSpill(p tsdb.Point) {
	if c.journalStore == nil {
		return
	}
	line, err := tsdb.AppendLine(nil, &p)
	if err == nil {
		_, err = c.journalStore.Append(line)
	}
	if err != nil {
		c.Self.Metrics().Counter("telemetry.journal.persist_errors").Inc()
		return
	}
	if c.journalAppends++; c.journalAppends >= c.journalCap() {
		c.compactJournal()
	}
}

// compactJournal makes the in-memory backlog the journal's snapshot,
// one batch body of line-protocol points, and empties its log —
// discarding replayed and evicted entries. Called at replay boundaries,
// by persistSpill at the cap, and on CloseJournal.
func (c *Collector) compactJournal() {
	if c.journalStore == nil {
		return
	}
	lines := make([][]byte, 0, len(c.journal))
	for i := range c.journal {
		if line, err := tsdb.AppendLine(nil, &c.journal[i]); err == nil {
			lines = append(lines, line)
		}
	}
	if err := c.journalStore.Compact(storage.EncodeBatchBody(lines)); err != nil {
		c.Self.Metrics().Counter("telemetry.journal.persist_errors").Inc()
		return
	}
	c.journalAppends = 0
}

// CloseJournal compacts the on-disk journal down to the live backlog
// and releases it. Safe on collectors without a journal.
func (c *Collector) CloseJournal() error {
	c.compactJournal()
	return c.journalStore.Close()
}
