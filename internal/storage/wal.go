package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FsyncPolicy says when the WAL forces appended records to stable
// storage. The policy is the durability/latency dial the paper's
// "performance monitoring record must survive" requirement turns on:
//
//   - FsyncAlways: fsync before every append returns. An acknowledged
//     write is on disk; a crash loses nothing acknowledged.
//   - FsyncInterval: an append fsyncs when syncInterval has passed
//     since the last sync, and no sync runs between appends: a crash
//     loses the appends since the last sync — the last interval's worth
//     while writes flow, and any count on a log left idle since, until
//     the next append, Sync or Close — but always recovers a clean
//     prefix (never a torn record).
//   - FsyncNever: leave flushing to the OS. Fastest; a crash may lose
//     any unflushed suffix, still recovering a clean prefix.
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// syncInterval is the FsyncInterval flush period.
const syncInterval = 100 * time.Millisecond

// ParseFsyncPolicy validates a policy string (the -fsync flag value).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("storage: unknown fsync policy %q (want always|interval|never)", s)
}

// RecoveryInfo reports what opening a WAL found.
type RecoveryInfo struct {
	// Records is how many intact records the clean prefix held.
	Records int
	// TornBytes is how many trailing bytes were discarded as a torn or
	// partially flushed final record (0 for a clean log).
	TornBytes int64
	// Torn reports whether a torn tail was truncated.
	Torn bool
}

// WAL is an append-only, CRC-framed log file. Appends are serialized;
// the appender tracks the synced prefix so Crash (the test-only
// simulation of an OS crash) can discard exactly the bytes a real crash
// could lose under the configured policy.
type WAL struct {
	mu       sync.Mutex
	f        *os.File // nil once closed or crashed
	pol      FsyncPolicy
	lastSync time.Time

	nextSeq uint64
	size    int64 // bytes written (memory view)
	synced  int64 // bytes known to be on stable storage

	buf []byte // scratch frame buffer, reused across appends
}

// OpenWAL opens (creating if needed) the log at path, replays it, and
// positions the appender after the clean prefix. A torn or corrupt final
// record is truncated away (that is what a crash mid-append leaves); a
// corrupt record with intact records after it is an error — bit rot must
// not be silently discarded. The returned records' Data slices are
// copies and safe to retain.
func OpenWAL(path string, pol FsyncPolicy) (*WAL, []Record, RecoveryInfo, error) {
	if _, err := ParseFsyncPolicy(string(pol)); err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	img, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, RecoveryInfo{}, fmt.Errorf("storage: read %s: %w", path, err)
	}
	recs, cleanLen, derr := DecodeAll(img)
	info := RecoveryInfo{Records: len(recs), TornBytes: int64(len(img) - cleanLen)}
	if derr != nil {
		if !errors.Is(derr, ErrTornRecord) {
			return nil, nil, info, fmt.Errorf("storage: %s: %w", path, derr)
		}
		info.Torn = true
	}
	// Deep-copy record data out of the file image before it goes away.
	for i := range recs {
		recs[i].Data = append([]byte(nil), recs[i].Data...)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("storage: open %s: %w", path, err)
	}
	if info.Torn {
		if err := f.Truncate(int64(cleanLen)); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("storage: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("storage: sync %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(cleanLen), 0); err != nil {
		f.Close()
		return nil, nil, info, fmt.Errorf("storage: seek %s: %w", path, err)
	}
	w := &WAL{
		f:       f,
		pol:     pol,
		nextSeq: 1,
		size:    int64(cleanLen),
		synced:  int64(cleanLen),
	}
	if n := len(recs); n > 0 {
		w.nextSeq = recs[n-1].Seq + 1
	}
	return w, recs, info, nil
}

// Append frames data, writes it, and applies the fsync policy. The
// returned sequence number identifies the record on recovery. When
// Append returns nil under FsyncAlways, the record is on stable storage.
// A closed WAL refuses with ErrClosed.
func (w *WAL) Append(data []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, ErrClosed
	}
	seq := w.nextSeq
	var err error
	w.buf, err = AppendRecord(w.buf[:0], seq, data)
	if err != nil {
		return 0, err
	}
	n, err := w.f.Write(w.buf)
	if err != nil {
		// A short frame write leaves a torn tail; recovery truncates it,
		// and the in-memory size keeps matching the file.
		w.size += int64(n)
		return 0, fmt.Errorf("storage: append: %w", err)
	}
	w.size += int64(n)
	w.nextSeq++
	switch w.pol {
	case FsyncAlways:
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if time.Since(w.lastSync) >= syncInterval {
			if err := w.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// Sync forces everything appended so far to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	w.synced = w.size
	w.lastSync = time.Now()
	return nil
}

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close flushes (a graceful close never abandons acknowledged appends,
// whatever the policy) and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	serr := w.syncLocked()
	cerr := w.f.Close()
	w.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Crash simulates the process dying without a flush: everything past the
// last fsync is discarded (truncated away, since the page cache of a
// live OS would otherwise keep it) and the file handle dropped. Under
// FsyncAlways this loses nothing; under interval/never it loses exactly
// the unsynced suffix — which is what the recovery oracles need a kill
// fault to mean. Test/simulation use only.
func (w *WAL) Crash() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Truncate(w.synced)
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	cerr := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("storage: crash truncate: %w", err)
	}
	return cerr
}

// writeFileAtomic writes data to tmp, fsyncs it, renames it over dst and
// fsyncs the directory, so dst is either the old or the new content —
// never a prefix.
func writeFileAtomic(dst, tmp string, data []byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: rename %s: %w", tmp, err)
	}
	return syncDir(filepath.Dir(dst))
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}
