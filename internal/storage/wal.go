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
//   - FsyncAlways: sync before every append returns. An acknowledged
//     write is on disk; a crash loses nothing acknowledged. The log
//     keeps a zero-filled extent past its end, so an append that fits
//     overwrites written blocks and pays only a data flush (fdatasync):
//     no new block or file size for the journal to commit.
//   - FsyncInterval: an append fsyncs when syncInterval has passed
//     since the last sync, and no sync runs between appends: a crash
//     loses the appends since the last sync — the last interval's worth
//     while writes flow, and any count on a log left idle since, until
//     the next append, Sync or Close — but always recovers a clean
//     prefix (never a torn record).
//   - FsyncNever: leave flushing to the OS. Fastest; a crash may lose
//     any unflushed suffix, still recovering a clean prefix.
//
// Interval and never keep an append-only file with no zero tail: with
// several appends unsynced at a crash, an overwrite inside an extent
// could reach the disk ahead of the frame before it, leaving a torn
// frame with a whole one after it, which recovery refuses as corruption.
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// syncInterval is the FsyncInterval flush period.
const syncInterval = 100 * time.Millisecond

// The zero-filled extent an FsyncAlways log keeps past its end ends on
// a fixed grid whose spacing doubles from 64 KiB up to 1 MiB: 64 KiB,
// 192 KiB, 448 KiB, 960 KiB, 1984 KiB, then every 1 MiB.
const (
	minExtentStep = 64 << 10
	maxExtentStep = 1 << 20
)

// extentEnd is where an extension that must cover end stops: the first
// grid boundary at or past it. So the file's length depends on the log's
// length alone, not on the sizes and order of the appends that made it.
func extentEnd(end int64) int64 {
	b, step := int64(0), int64(minExtentStep)
	for b < end {
		b += step
		step = min(2*step, maxExtentStep)
	}
	return b
}

// zeroPage is what an extent is written from. It is static, so the
// zeros cost no heap and never pass through a WAL's frame buffer.
var zeroPage [64 << 10]byte

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
	// partially flushed final record (0 for a clean log, whose zero
	// extent is kept, not discarded).
	TornBytes int64
	// Torn reports whether a torn tail was truncated.
	Torn bool
}

// WAL is a CRC-framed log file. Appends are serialized; the appender
// tracks the synced prefix so Crash (the test-only simulation of an OS
// crash) can discard exactly the bytes a real crash could lose under the
// configured policy.
//
// The log's logical end (size) and the file's length (extent) differ
// under FsyncAlways only: the bytes between them are zeros, which
// recovery reads as the end of the log.
type WAL struct {
	mu       sync.Mutex
	f        *os.File // nil once closed or crashed
	pol      FsyncPolicy
	lastSync time.Time

	nextSeq uint64
	size    int64 // the log's logical end: the next frame is written here
	synced  int64 // bytes known to be on stable storage
	extent  int64 // the file's length; [size, extent) reads zero
	// dirty ends what a failed write may have left past size; the next
	// append overwrites or cuts it. No residue when dirty <= size.
	dirty int64

	buf []byte // scratch frame buffer, reused across appends
}

// OpenWAL opens (creating if needed) the log at path, replays it, and
// positions the appender at the end of the clean prefix. A torn or
// corrupt final record is truncated away (that is what a crash
// mid-append leaves); a corrupt record with intact records after it is
// an error — bit rot must not be silently discarded. Under FsyncAlways
// a clean zero tail stays as the log's extent; the other policies
// truncate it, keeping their file append-only. The returned records'
// Data slices alias the file image read here, which nothing else holds:
// safe to retain, though one retained slice keeps the whole image.
func OpenWAL(path string, pol FsyncPolicy) (*WAL, []Record, RecoveryInfo, error) {
	if _, err := ParseFsyncPolicy(string(pol)); err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	img, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, RecoveryInfo{}, fmt.Errorf("storage: read %s: %w", path, err)
	}
	recs, cleanLen, derr := DecodeAll(img)
	info := RecoveryInfo{Records: len(recs)}
	if derr != nil {
		if !errors.Is(derr, ErrTornRecord) {
			return nil, nil, info, fmt.Errorf("storage: %s: %w", path, derr)
		}
		info.Torn = true
		info.TornBytes = int64(len(img) - cleanLen)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("storage: open %s: %w", path, err)
	}
	extent := int64(len(img))
	if info.Torn || (pol != FsyncAlways && extent > int64(cleanLen)) {
		if err := f.Truncate(int64(cleanLen)); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("storage: truncate the tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, info, fmt.Errorf("storage: sync %s: %w", path, err)
		}
		extent = int64(cleanLen)
	}
	w := &WAL{
		f:       f,
		pol:     pol,
		nextSeq: 1,
		size:    int64(cleanLen),
		synced:  int64(cleanLen),
		extent:  extent,
	}
	if n := len(recs); n > 0 {
		w.nextSeq = recs[n-1].Seq + 1
	}
	return w, recs, info, nil
}

// Append frames data, writes it at the log's end, and applies the
// fsync policy. The returned sequence number identifies the record on
// recovery. When Append returns nil under FsyncAlways, the record is on
// stable storage. A failed append leaves the log's end where it was, so
// the next append overwrites what it left. A closed WAL refuses with
// ErrClosed.
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
	grew, err := w.writeLocked(w.buf)
	if err != nil {
		return 0, fmt.Errorf("storage: append: %w", err)
	}
	w.nextSeq++
	switch w.pol {
	case FsyncAlways:
		// Only a file that grew has metadata the next boot needs.
		sync := w.syncLocked
		if !grew {
			sync = w.datasyncLocked
		}
		if err := sync(); err != nil {
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

// writeLocked writes frame at the log's end and moves the end past it.
// Under FsyncAlways the bytes after the frame must read zero, so it
// zeroes what a failed write left there and, when the frame does not
// fit the extent, extends it. It reports whether the file grew.
func (w *WAL) writeLocked(frame []byte) (grew bool, err error) {
	if w.pol != FsyncAlways && w.dirty > w.size {
		if err := w.f.Truncate(w.size); err != nil {
			return false, err
		}
		w.extent, w.dirty = w.size, 0
	}
	end := w.size + int64(len(frame))
	if n, err := w.f.WriteAt(frame, w.size); err != nil {
		w.dirty = max(w.dirty, w.size+int64(n))
		return false, err
	}
	zeroTo := w.dirty
	if w.pol == FsyncAlways && end > w.extent {
		zeroTo = max(zeroTo, extentEnd(end))
	}
	for off := end; off < zeroTo; {
		n, err := w.f.WriteAt(zeroPage[:min(int64(len(zeroPage)), zeroTo-off)], off)
		if err != nil {
			w.dirty = max(w.dirty, end)
			return false, err
		}
		off += int64(n)
	}
	grew = max(end, zeroTo) > w.extent
	w.extent = max(w.extent, end, zeroTo)
	w.size, w.dirty = end, 0
	return grew, nil
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

// datasyncLocked is syncLocked for an append that wrote inside the
// extent: the file's length and blocks are unchanged, so its data is
// all there is to flush.
func (w *WAL) datasyncLocked() error {
	if err := datasync(w.f); err != nil {
		return fmt.Errorf("storage: fdatasync: %w", err)
	}
	w.synced = w.size
	w.lastSync = time.Now()
	return nil
}

// Size returns the log's logical length in bytes: its clean prefix,
// without the zero extent past it.
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
// FsyncAlways this loses no record, only the zero extent; under
// interval/never it loses exactly
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
