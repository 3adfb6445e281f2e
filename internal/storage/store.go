package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Data-directory layout. The snapshot is one framed record (seq = the
// last WAL sequence it covers, data = the caller's state encoding)
// written atomically; the WAL holds every mutation after it.
const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.db"
)

// ErrClosed is what Append and Compact return once the store (or WAL)
// was closed or crashed: the caller's memory may still answer reads, but
// a write it accepted now would be silently volatile.
var ErrClosed = errors.New("storage: write to a closed store")

// Recovered is everything Open found in a data directory.
type Recovered struct {
	// Snapshot is the last compacted state (nil when never compacted).
	// It and Records' Data alias the files' images, read for them alone.
	Snapshot []byte
	// SnapshotSeq is the WAL sequence the snapshot covers through.
	SnapshotSeq uint64
	// Records are the WAL records newer than the snapshot, in append
	// order. Records the snapshot already covers (a crash between
	// snapshot write and WAL rotation leaves an overlap) are filtered
	// out, so replaying Snapshot then Records is idempotent.
	Records []Record
}

// Store manages one data directory: a WAL for incremental mutations and
// an atomically replaced snapshot for compaction. It owns the directory's
// lifecycle: after Close or Crash, Append and Compact return ErrClosed
// and Sync, Close and Crash return nil. A nil *Store is the in-memory
// mode's: it has no WAL path, and Sync, Close and Crash do nothing.
type Store struct {
	dir string
	wal *WAL
}

// Open creates/recovers the data directory and returns the store
// positioned for appending plus everything recovered from disk.
func Open(dir string, pol FsyncPolicy) (*Store, Recovered, error) {
	var rec Recovered
	if dir == "" {
		return nil, rec, fmt.Errorf("storage: empty data directory")
	}
	if _, err := ParseFsyncPolicy(string(pol)); err != nil {
		return nil, rec, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	snapPath := filepath.Join(dir, snapshotFileName)
	if img, err := os.ReadFile(snapPath); err == nil {
		// The snapshot is written atomically, so a partial file means the
		// medium corrupted it — never truncate-and-hope on the snapshot.
		r, n, derr := DecodeRecord(img)
		if derr != nil || n != len(img) {
			if derr == nil {
				derr = fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(img)-n)
			}
			return nil, rec, fmt.Errorf("storage: snapshot %s: %w", snapPath, derr)
		}
		rec.Snapshot = r.Data
		rec.SnapshotSeq = r.Seq
	} else if !os.IsNotExist(err) {
		return nil, rec, fmt.Errorf("storage: read snapshot: %w", err)
	}
	wal, recs, _, err := OpenWAL(filepath.Join(dir, walFileName), pol)
	if err != nil {
		return nil, rec, err
	}
	for _, r := range recs {
		if r.Seq > rec.SnapshotSeq {
			rec.Records = append(rec.Records, r)
		}
	}
	// A WAL that restarted numbering below the snapshot horizon (the
	// rotation completed) must keep assigning sequences above it, or the
	// next compaction would mask fresh records.
	if wal.nextSeq <= rec.SnapshotSeq {
		wal.nextSeq = rec.SnapshotSeq + 1
	}
	return &Store{dir: dir, wal: wal}, rec, nil
}

// WALPath returns the log file path (fault injection targets it); ""
// on a nil store.
func (s *Store) WALPath() string {
	if s == nil {
		return ""
	}
	return filepath.Join(s.dir, walFileName)
}

// Append logs one mutation and returns its sequence number.
func (s *Store) Append(data []byte) (uint64, error) {
	return s.wal.Append(data)
}

// Sync forces the log to stable storage (flush-on-close and the
// interval policy's checkpoint both come through here).
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	return s.wal.Sync()
}

// Compact atomically writes state as the new snapshot covering every
// record logged so far, then empties the WAL in place; sequence numbers
// carry on above the snapshot's. A crash between the two steps leaves an
// overlap that Open filters out by sequence number, so compaction is
// crash-safe at every point. Appends wait for it.
func (s *Store) Compact(state []byte) error {
	w := s.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	img, err := AppendRecord(nil, w.nextSeq-1, state)
	if err != nil {
		return err
	}
	// The snapshot must be durable before the WAL shrinks: sync the log
	// first so the snapshot never covers records the disk has not seen.
	if err := w.syncLocked(); err != nil {
		return err
	}
	snapPath := filepath.Join(s.dir, snapshotFileName)
	if err := writeFileAtomic(snapPath, snapPath+".tmp", img); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: rotate wal: %w", err)
	}
	// The extent goes with the log and grows again from the grid's start.
	w.size, w.extent, w.dirty = 0, 0, 0
	return w.syncLocked()
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.wal.Close()
}

// Crash simulates dying without a flush: the unsynced WAL suffix is
// discarded. Test/simulation use only — see WAL.Crash.
func (s *Store) Crash() error {
	if s == nil {
		return nil
	}
	return s.wal.Crash()
}
