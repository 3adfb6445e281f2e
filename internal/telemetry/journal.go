package telemetry

import (
	"fmt"
	"os"
	"path/filepath"

	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// On-disk spill journal: an opt-in durability layer under the degraded
// mode's in-memory outage journal. When PipelineConfig.JournalDir is
// set, every spilled point is also appended to a write-ahead log (the
// same length-prefixed CRC32C framing internal/storage uses for the
// database WALs, one line-protocol-encoded point per record), so a
// collector that crashes mid-outage resumes the backlog on restart
// instead of silently forgetting acknowledged-as-spilled data. The file
// is compacted back down to the live backlog at every replay boundary,
// making recovery at-least-once: a crash between a sink write and the
// compaction can re-deliver a point, never lose one.

// journalFileName is the spill journal file inside JournalDir.
const journalFileName = "journal.wal"

// OpenJournal binds the collector to the on-disk spill journal in
// Cfg.JournalDir, creating the directory as needed, and reloads any
// backlog a previous incarnation left behind into the in-memory journal
// (oldest first, re-applying the cap). It returns how many journal
// entries were recovered. No-op returning 0 when JournalDir is unset.
// Call once before the first session; points recovered here are counted
// in RecoveredSpill, the term that joins Expected on the left side of
// the conservation law.
func (c *Collector) OpenJournal() (int, error) {
	if c.Cfg.JournalDir == "" {
		return 0, nil
	}
	if err := os.MkdirAll(c.Cfg.JournalDir, 0o755); err != nil {
		return 0, fmt.Errorf("telemetry: journal dir: %w", err)
	}
	path := filepath.Join(c.Cfg.JournalDir, journalFileName)
	w, recs, _, err := storage.OpenWAL(path, storage.FsyncAlways)
	if err != nil {
		return 0, fmt.Errorf("telemetry: open journal: %w", err)
	}
	reg := c.Self.Metrics()
	recovered := 0
	for _, r := range recs {
		p, derr := tsdb.DecodeLine(string(r.Data))
		if derr != nil {
			w.Close()
			return 0, fmt.Errorf("telemetry: journal record %d: %w", r.Seq, derr)
		}
		c.journal = append(c.journal, p)
		c.RecoveredSpill += uint64(len(p.Fields))
		recovered++
	}
	for len(c.journal) > c.journalCap() {
		dropped := c.journal[0]
		c.journal = c.journal[1:]
		c.SpillDropped += uint64(len(dropped.Fields))
		reg.Counter("telemetry.journal.dropped").Add(uint64(len(dropped.Fields)))
	}
	c.journalWAL = w
	c.journalPath = path
	if len(c.journal) > 0 {
		// A recovered backlog means the last incarnation died degraded;
		// resume in that state so Offer replays it ahead of fresh data.
		c.degraded = true
	}
	reg.Counter("telemetry.journal.recovered").Add(uint64(recovered))
	reg.Gauge("telemetry.journal.pending").Set(float64(len(c.journal)))
	return recovered, nil
}

// JournalPath returns the on-disk journal path ("" when not open).
func (c *Collector) JournalPath() string { return c.journalPath }

// persistSpill appends one spilled point to the on-disk journal. Spill
// itself must not fail — a persistence error is counted, not returned,
// and degrades that point to memory-only durability.
func (c *Collector) persistSpill(p tsdb.Point) {
	if c.journalWAL == nil {
		return
	}
	line, err := tsdb.AppendLine(nil, &p)
	if err == nil {
		_, err = c.journalWAL.Append(line)
	}
	if err != nil {
		c.Self.Metrics().Counter("telemetry.journal.persist_errors").Inc()
	}
}

// compactJournal rewrites the on-disk journal to exactly the current
// in-memory backlog (atomically: temp file + rename), discarding
// replayed and evicted entries. Called at replay boundaries and on
// CloseJournal.
func (c *Collector) compactJournal() {
	if c.journalWAL == nil {
		return
	}
	payloads := make([][]byte, 0, len(c.journal))
	for i := range c.journal {
		line, err := tsdb.AppendLine(nil, &c.journal[i])
		if err != nil {
			continue
		}
		payloads = append(payloads, line)
	}
	c.journalWAL.Close()
	w, _, err := storage.RewriteWAL(c.journalPath, storage.FsyncAlways, payloads)
	if err != nil {
		c.journalWAL = nil
		c.Self.Metrics().Counter("telemetry.journal.persist_errors").Inc()
		return
	}
	c.journalWAL = w
}

// CloseJournal compacts the on-disk journal down to the live backlog
// and releases it. Safe on collectors without a journal.
func (c *Collector) CloseJournal() error {
	if c.journalWAL == nil {
		return nil
	}
	c.compactJournal()
	if c.journalWAL == nil {
		return nil
	}
	err := c.journalWAL.Close()
	c.journalWAL = nil
	return err
}
