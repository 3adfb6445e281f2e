package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustAppend(t *testing.T, w *WAL, data string) uint64 {
	t.Helper()
	seq, err := w.Append([]byte(data))
	if err != nil {
		t.Fatalf("Append(%q): %v", data, err)
	}
	return seq
}

func openWAL(t *testing.T, path string, pol FsyncPolicy) (*WAL, []Record, RecoveryInfo) {
	t.Helper()
	w, recs, info, err := OpenWAL(path, pol)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	return w, recs, info
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAA}, 4096)}
	var img []byte
	var err error
	for i, p := range payloads {
		img, err = AppendRecord(img, uint64(i)+7, p)
		if err != nil {
			t.Fatalf("AppendRecord #%d: %v", i, err)
		}
	}
	recs, clean, err := DecodeAll(img)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if clean != len(img) {
		t.Fatalf("clean prefix %d != image %d", clean, len(img))
	}
	if len(recs) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Seq != uint64(i)+7 {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+7)
		}
		if !bytes.Equal(r.Data, payloads[i]) {
			t.Errorf("record %d: data mismatch", i)
		}
	}
}

func TestRecordRejectsOversize(t *testing.T) {
	if _, err := AppendRecord(nil, 1, make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("AppendRecord accepted an oversize record")
	}
}

// TestOpenEmptyWAL: a missing file and a zero-byte file both recover to
// an empty, appendable log.
func TestOpenEmptyWAL(t *testing.T) {
	for name, create := range map[string]bool{"missing": false, "zero-byte": true} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			if create {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			w, recs, info := openWAL(t, path, FsyncAlways)
			defer w.Close()
			if len(recs) != 0 || info.Torn || info.TornBytes != 0 {
				t.Fatalf("empty WAL recovered recs=%d info=%+v", len(recs), info)
			}
			if seq := mustAppend(t, w, "first"); seq != 1 {
				t.Fatalf("first append seq=%d, want 1", seq)
			}
		})
	}
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	want := []string{"alpha", "beta", "gamma"}
	for _, s := range want {
		mustAppend(t, w, s)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, recs, info := openWAL(t, path, FsyncAlways)
	defer w2.Close()
	if info.Torn {
		t.Fatalf("clean log reported torn: %+v", info)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r.Data) != want[i] {
			t.Errorf("record %d: %q, want %q", i, r.Data, want[i])
		}
	}
	// Appends resume the sequence, not restart it.
	if seq := mustAppend(t, w2, "delta"); seq != uint64(len(want))+1 {
		t.Fatalf("post-recovery seq=%d, want %d", seq, len(want)+1)
	}
}

// TestTornFinalRecord: truncating mid-frame (a crash during the last
// append) recovers the clean prefix and reports the tear.
func TestTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "keep-1")
	mustAppend(t, w, "keep-2")
	goodLen := w.Size()
	mustAppend(t, w, "torn-away-by-the-crash")
	w.Close()

	for _, cut := range []int64{1, 3, 9, 12} { // into header, into payload
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(torn, img[:goodLen+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, info := openWAL(t, torn, FsyncAlways)
		if !info.Torn || info.TornBytes != cut {
			t.Fatalf("cut=%d: info=%+v, want torn with %d bytes", cut, info, cut)
		}
		if len(recs) != 2 || string(recs[1].Data) != "keep-2" {
			t.Fatalf("cut=%d: recovered %d records", cut, len(recs))
		}
		// The file itself was truncated back to the clean prefix.
		if st, _ := os.Stat(torn); st.Size() != goodLen {
			t.Fatalf("cut=%d: file %d bytes after recovery, want %d", cut, st.Size(), goodLen)
		}
		// And the log is immediately appendable with a coherent sequence.
		if seq := mustAppend(t, w2, "resumed"); seq != 3 {
			t.Fatalf("cut=%d: resumed seq=%d, want 3", cut, seq)
		}
		w2.Close()
	}
}

// TestCorruptCRCMidFile: a flipped byte in a record that intact records
// follow is bit rot, and recovery must refuse rather than silently drop
// the good tail.
func TestCorruptCRCMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "first-record-here")
	firstEnd := w.Size()
	mustAppend(t, w, "second")
	mustAppend(t, w, "third")
	w.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[firstEnd-2] ^= 0xFF // flip a byte inside record 1's payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, oerr := OpenWAL(path, FsyncAlways)
	if oerr == nil {
		t.Fatal("OpenWAL accepted mid-file corruption")
	}
	if !errors.Is(oerr, ErrCorruptRecord) {
		t.Fatalf("error %v, want ErrCorruptRecord", oerr)
	}
	if errors.Is(oerr, ErrTornRecord) {
		t.Fatalf("mid-file corruption classified as torn: %v", oerr)
	}
}

// TestCorruptFinalRecord: a CRC mismatch on the very last record is
// indistinguishable from a partially flushed final sector, so it is
// truncated like a torn tail rather than erroring.
func TestCorruptFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncAlways)
	mustAppend(t, w, "keep")
	mustAppend(t, w, "corrupted-in-place")
	w.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs, info := openWAL(t, path, FsyncAlways)
	defer w2.Close()
	if !info.Torn || len(recs) != 1 || string(recs[0].Data) != "keep" {
		t.Fatalf("recovered recs=%d info=%+v, want 1 record + torn", len(recs), info)
	}
}

// TestCrashLosesOnlyUnsyncedSuffix: the crash simulation discards
// exactly what a real crash could — nothing under always, the unsynced
// suffix under never.
func TestCrashLosesOnlyUnsyncedSuffix(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, _, _ := openWAL(t, path, FsyncAlways)
		mustAppend(t, w, "acked-1")
		mustAppend(t, w, "acked-2")
		if err := w.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		w2, recs, _ := openWAL(t, path, FsyncAlways)
		defer w2.Close()
		if len(recs) != 2 {
			t.Fatalf("fsync=always crash lost records: recovered %d, want 2", len(recs))
		}
	})
	t.Run("never", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, _, _ := openWAL(t, path, FsyncNever)
		mustAppend(t, w, "synced")
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, w, "unsynced-1")
		mustAppend(t, w, "unsynced-2")
		if err := w.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		w2, recs, info := openWAL(t, path, FsyncNever)
		defer w2.Close()
		if len(recs) != 1 || string(recs[0].Data) != "synced" {
			t.Fatalf("fsync=never crash recovered %d records (info=%+v), want just the synced one", len(recs), info)
		}
	})
}

func TestStoreSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if _, err := s.Append([]byte("pre-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact([]byte("STATE-1")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot present, WAL empty: recovery is snapshot-only.
	s2, rec2, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(rec2.Snapshot) != "STATE-1" {
		t.Fatalf("snapshot %q, want STATE-1", rec2.Snapshot)
	}
	if len(rec2.Records) != 0 {
		t.Fatalf("snapshot-only recovery returned %d WAL records", len(rec2.Records))
	}
	// Fresh appends land above the snapshot horizon.
	seq, err := s2.Append([]byte("post-snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= rec2.SnapshotSeq {
		t.Fatalf("post-snapshot seq %d not above snapshot horizon %d", seq, rec2.SnapshotSeq)
	}
}

// TestStoreSnapshotWALOverlap: a WAL that still holds records the
// snapshot covers (crash between snapshot write and WAL rotation) must
// not replay them twice.
func TestStoreSnapshotWALOverlap(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-write the snapshot covering seq 1..3 WITHOUT rotating the WAL
	// — exactly the state a crash inside Compact leaves behind.
	img, err := AppendRecord(nil, 3, []byte("STATE-COVERS-3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("new-4")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(rec.Snapshot) != "STATE-COVERS-3" || rec.SnapshotSeq != 3 {
		t.Fatalf("snapshot %q seq %d", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "new-4" {
		t.Fatalf("overlap not filtered: recovered %d records %q", len(rec.Records), rec.Records)
	}
}

func TestStoreCorruptSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap := filepath.Join(dir, snapshotFileName)
	img, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, FsyncAlways); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// TestStoreRefusesAfterClose: the store owns its lifecycle. Once closed
// or crashed it refuses Append and Compact with ErrClosed and leaves its
// files as they were — no snapshot, no new wal.log — while Sync, Close
// and Crash are no-ops; so are they on the nil store of the in-memory
// mode.
func TestStoreRefusesAfterClose(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		t.Run(end, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(dir, FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append([]byte("kept")); err != nil {
				t.Fatal(err)
			}
			stop := s.Close
			if end == "crash" {
				stop = s.Crash
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			walImg, err := os.ReadFile(s.WALPath())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Compact([]byte("STATE")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Compact after %s: %v, want ErrClosed", end, err)
			}
			if _, err := s.Append([]byte("late")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Append after %s: %v, want ErrClosed", end, err)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); !os.IsNotExist(err) {
				t.Fatalf("a closed store wrote a snapshot (stat: %v)", err)
			}
			if img, err := os.ReadFile(s.WALPath()); err != nil || !bytes.Equal(img, walImg) {
				t.Fatalf("a closed store rewrote its WAL: %d bytes, was %d (%v)", len(img), len(walImg), err)
			}
			for name, f := range map[string]func() error{"Sync": s.Sync, "Close": s.Close, "Crash": s.Crash} {
				if err := f(); err != nil {
					t.Errorf("%s after %s: %v, want nil", name, end, err)
				}
			}
		})
	}
	var mem *Store
	if mem.WALPath() != "" || mem.Sync() != nil || mem.Close() != nil || mem.Crash() != nil {
		t.Fatal("the nil store is not a no-op")
	}
}

// TestFsyncIntervalPolicy pins what "interval" means: an append syncs
// when syncInterval has passed since the last sync, and nothing syncs
// between appends — a log left idle keeps its unsynced suffix until the
// next append, Sync or Close. The test moves the last sync's time
// instead of sleeping: a sync "in the future" keeps the interval from
// passing.
func TestFsyncIntervalPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := openWAL(t, path, FsyncInterval)
	syncedAt := func(at time.Time) {
		w.mu.Lock()
		w.lastSync = at
		w.mu.Unlock()
	}
	unsynced := func() int64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.size - w.synced
	}
	syncedAt(time.Now().Add(time.Hour))
	mustAppend(t, w, "a")
	mustAppend(t, w, "b")
	if unsynced() == 0 {
		t.Fatal("an append inside the interval synced")
	}
	// The interval passes on an idle log: it stays unsynced.
	syncedAt(time.Now().Add(-2 * syncInterval))
	if unsynced() == 0 {
		t.Fatal("an idle log synced")
	}
	mustAppend(t, w, "c") // the first append after the interval syncs a..c
	if n := unsynced(); n != 0 {
		t.Fatalf("%d bytes unsynced after the interval's append", n)
	}
	syncedAt(time.Now().Add(time.Hour))
	mustAppend(t, w, "d")
	if err := w.Crash(); err != nil {
		t.Fatal(err)
	}
	// The crash loses what the last sync did not cover, cleanly.
	w2, recs, info := openWAL(t, path, FsyncInterval)
	defer w2.Close()
	if info.Torn {
		t.Fatalf("interval crash left a torn tail: %+v", info)
	}
	if len(recs) != 3 || string(recs[2].Data) != "c" {
		t.Fatalf("interval crash recovered %d records, want a, b, c", len(recs))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"", "always", "interval", "never"} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted junk")
	}
}
