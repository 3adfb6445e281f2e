package telemetry

import (
	"context"
	"errors"
	"os"
	"testing"

	"pmove/internal/tsdb"
)

// switchSink fails every write while down, then lands points in the
// embedded db once up — the minimal outage model for journal tests.
type switchSink struct {
	down bool
	db   *tsdb.DB
}

func (s *switchSink) WriteBatchContext(ctx context.Context, ps []tsdb.Point) error {
	if s.down {
		return errors.New("sink down")
	}
	return s.db.WriteBatchContext(ctx, ps)
}

func journalSamples(v float64) []Sample {
	return []Sample{{Metric: "cpu.idle", Values: map[string]float64{"value": v}}}
}

// TestJournalPersistAndRecover: points spilled during an outage survive
// a collector crash via the on-disk journal, replay exactly once into
// the recovered sink, and the conservation law extended with
// RecoveredSpill holds on the successor.
func TestJournalPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	sink := &switchSink{down: true, db: tsdb.New()}
	cfg := PipelineConfig{Seed: 1, Degraded: true, JournalDir: dir}

	colA := NewCollector(nil, cfg)
	colA.Sink = sink
	if n, err := colA.OpenJournal(); err != nil || n != 0 {
		t.Fatalf("fresh journal: recovered %d, err %v", n, err)
	}
	const spills = 5
	for i := 0; i < spills; i++ {
		if err := colA.OfferContext(context.Background(), float64(i+1), journalSamples(float64(i)), "j", false); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	if colA.Spilled != spills {
		t.Fatalf("spilled %d, want %d", colA.Spilled, spills)
	}
	// Crash: no CloseJournal, the process just dies.

	sink.down = false
	colB := NewCollector(nil, cfg)
	colB.Sink = sink
	n, err := colB.OpenJournal()
	if err != nil {
		t.Fatalf("recover journal: %v", err)
	}
	if n != spills {
		t.Fatalf("recovered %d entries, want %d", n, spills)
	}
	if colB.RecoveredSpill != spills {
		t.Fatalf("RecoveredSpill = %d, want %d", colB.RecoveredSpill, spills)
	}
	if !colB.Degraded() {
		t.Fatal("collector with inherited backlog must resume degraded")
	}
	if left := colB.ReplayContext(context.Background()); left != 0 {
		t.Fatalf("replay left %d points against a healthy sink", left)
	}
	if total, _ := sink.db.CountValues("cpu_idle"); total != spills {
		t.Fatalf("sink holds %d values, want %d", total, spills)
	}
	// Conservation on the successor: nothing expected, everything
	// recovered and inserted.
	if colB.Expected+colB.RecoveredSpill != colB.Inserted+colB.Lost+colB.SpillDropped+colB.PendingSpillFields() {
		t.Fatalf("conservation violated: %+v", *colB)
	}

	// The replay compacted the on-disk journal: a third incarnation
	// inherits nothing (no double delivery).
	colC := NewCollector(nil, cfg)
	if n, err := colC.OpenJournal(); err != nil || n != 0 {
		t.Fatalf("journal not compacted after replay: recovered %d, err %v", n, err)
	}
	colB.CloseJournal()
	colC.CloseJournal()
}

// TestJournalTornTailRecovers: a crash mid-append leaves a torn final
// record; recovery keeps the clean prefix and carries on.
func TestJournalTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	sink := &switchSink{down: true, db: tsdb.New()}
	cfg := PipelineConfig{Seed: 1, Degraded: true, JournalDir: dir}
	col := NewCollector(nil, cfg)
	col.Sink = sink
	if _, err := col.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := col.OfferContext(context.Background(), float64(i+1), journalSamples(1), "j", false); err != nil {
			t.Fatal(err)
		}
	}
	path := col.JournalPath()
	// Crash mid-append: garbage that parses as a frame header promising
	// more bytes than follow.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := NewCollector(nil, cfg)
	n, err := re.OpenJournal()
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if n != 3 {
		t.Fatalf("recovered %d entries, want the 3-entry clean prefix", n)
	}
	re.CloseJournal()
}

// TestJournalCapAppliesOnRecovery: a recovered backlog larger than the
// cap is trimmed oldest-first, counted as SpillDropped.
func TestJournalCapAppliesOnRecovery(t *testing.T) {
	dir := t.TempDir()
	sink := &switchSink{down: true, db: tsdb.New()}
	write := PipelineConfig{Seed: 1, Degraded: true, JournalDir: dir}
	col := NewCollector(nil, write)
	col.Sink = sink
	if _, err := col.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := col.OfferContext(context.Background(), float64(i+1), journalSamples(float64(i)), "j", false); err != nil {
			t.Fatal(err)
		}
	}

	read := write
	read.JournalCap = 4
	re := NewCollector(nil, read)
	if _, err := re.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	if re.PendingSpill() != 4 {
		t.Fatalf("pending %d after capped recovery, want 4", re.PendingSpill())
	}
	if re.SpillDropped != 2 {
		t.Fatalf("SpillDropped = %d, want 2", re.SpillDropped)
	}
	if re.Expected+re.RecoveredSpill != re.Inserted+re.Lost+re.SpillDropped+re.PendingSpillFields() {
		t.Fatalf("conservation violated after capped recovery: %+v", *re)
	}
	re.CloseJournal()
}
