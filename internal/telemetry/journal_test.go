package telemetry

import (
	"context"
	"errors"
	"os"
	"testing"

	"pmove/internal/storage"
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

// journalPoints counts the points a journal directory holds on disk: the
// snapshot's backlog, then the records logged after it.
func journalPoints(t *testing.T, dir string) int {
	t.Helper()
	st, rec, err := storage.Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := len(rec.Records)
	if len(rec.Snapshot) > 0 {
		lines, err := storage.DecodeBatchBody(rec.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		n += len(lines)
	}
	return n
}

// TestJournalFileBoundedByCap: through an outage ten times JournalCap
// the on-disk journal holds the whole in-memory backlog and stays under
// twice the cap — it compacts once the appends since the last
// compaction reach the cap — and a restart recovers the newest cap
// points, oldest first.
func TestJournalFileBoundedByCap(t *testing.T) {
	dir := t.TempDir()
	sink := &switchSink{down: true, db: tsdb.New()}
	cfg := PipelineConfig{Seed: 1, Degraded: true, JournalDir: dir, JournalCap: 8}
	col := NewCollector(nil, cfg)
	col.Sink = sink
	if _, err := col.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	const ticks = 10 * 8
	for i := 0; i < ticks; i++ {
		if err := col.OfferContext(context.Background(), float64(i+1), journalSamples(float64(i)), "j", false); err != nil {
			t.Fatal(err)
		}
		if n := journalPoints(t, dir); n < col.PendingSpill() || n >= 2*cfg.JournalCap {
			t.Fatalf("tick %d: the journal directory holds %d points for a backlog of %d, cap %d", i, n, col.PendingSpill(), cfg.JournalCap)
		}
	}
	// Crash: no CloseJournal.
	re := NewCollector(nil, cfg)
	if _, err := re.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	defer re.CloseJournal()
	if re.PendingSpill() != cfg.JournalCap {
		t.Fatalf("recovered a backlog of %d, want the cap %d", re.PendingSpill(), cfg.JournalCap)
	}
	for k, p := range re.journal {
		if want := float64(ticks - cfg.JournalCap + k); p.Fields["value"] != want {
			t.Fatalf("recovered entry %d holds %v, want %v", k, p.Fields["value"], want)
		}
	}
}
