package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pmove/internal/storage"
)

// Durability for the embedded tsdb: Open binds a DB to a data directory
// managed by internal/storage — every accepted batch is appended to the
// write-ahead log before it lands in memory, and Open replays
// snapshot+WAL so a restart reconstructs exactly the acknowledged
// writes. Compact folds the log into an atomic snapshot.
//
// The line protocol is already the canonical, fuzz-hardened encoding of
// a point (EncodeLine∘DecodeLine is the identity on valid points), so
// the WAL record body reuses it instead of inventing a second codec: a
// record holds the lines a wire client sent (when canonical) or the
// encoder's, and replay reads them with the wire server's row scanner.
// Batch writes group-commit: the whole batch is ONE WAL record (a
// storage batch envelope of line-protocol sub-bodies), so recovery
// replays a batch entirely or — when the crash tore its frame — not at
// all. A one-point batch is a plain line body.
//
// Snapshots are columnar: sealed blocks are written in their compressed
// wire form (the same bytes resident in memory — zero re-encoding) and
// each head is closed into one block for the file, so snapshot size and
// write time shrink with the storage compression ratio.

// snapshotMagic heads a columnar snapshot.
const snapshotMagic = "\x07PMVCOL1\n"

// ErrSnapshotFormat rejects a snapshot file that does not start with the
// columnar magic: Open fails and leaves the data directory as it found
// it rather than guess at the contents or start empty over them.
var ErrSnapshotFormat = errors.New("tsdb: snapshot is not in the columnar format")

// Open opens (creating if needed) a durable DB at dir. Recovery order:
// the snapshot's points first, then every WAL record newer than the
// snapshot — records the snapshot already covers were filtered out by
// the storage layer, so replay is idempotent. A torn final WAL record
// (crash mid-append) is silently truncated; mid-file corruption errors.
func Open(dir string, pol storage.FsyncPolicy) (*DB, error) {
	st, rec, err := storage.Open(dir, pol)
	if err != nil {
		return nil, err
	}
	db := New()
	if err := db.replay(rec); err != nil {
		st.Close()
		return nil, fmt.Errorf("tsdb: recover %s: %w", dir, err)
	}
	db.store = st
	return db, nil
}

// replay rebuilds the in-memory state from a recovered snapshot and the
// WAL records after it: each record's lines go through the row scanner
// into one insertBatch. Runs before the DB is shared.
func (db *DB) replay(rec storage.Recovered) error {
	if len(rec.Snapshot) > 0 {
		if !bytes.HasPrefix(rec.Snapshot, []byte(snapshotMagic)) {
			return ErrSnapshotFormat
		}
		if err := db.loadSnapshot(rec.Snapshot); err != nil {
			return err
		}
	}
	var rb rowBuf // reused record after record
	for _, r := range rec.Records {
		var err error
		items := [][]byte{r.Data}
		if storage.IsBatchBody(r.Data) {
			if items, err = storage.DecodeBatchBody(r.Data); err != nil {
				return err
			}
		}
		rb.rows, rb.kvs = rb.rows[:0], rb.kvs[:0]
		for _, it := range items {
			if err := rb.scan(string(it)); err != nil {
				return err
			}
		}
		db.insertBatch(&rb)
	}
	return nil
}

// Durable reports whether the DB is backed by a data directory.
func (db *DB) Durable() bool { return db.store != nil }

// WALPath returns the write-ahead log path ("" for in-memory DBs);
// fault-injection harnesses tear and corrupt it between restarts.
func (db *DB) WALPath() string { return db.store.WALPath() }

// Sync forces the WAL to stable storage — the flush-on-close barrier
// and the interval policy's manual checkpoint. No-op in memory.
func (db *DB) Sync() error { return db.store.Sync() }

// Snapshot chunk kinds: a sealed block carried verbatim, or the head
// closed just for the file (it stays open in memory).
const (
	chunkSealed = 1
	chunkHead   = 0
)

// snapshotLocked renders the whole store in columnar snapshot form:
// measurements in sorted order, each measurement's series in creation
// order (so recovery reassigns the same scan tie-break sequence), each
// series as its identity plus its chunks — sealed blocks verbatim, the
// head closed (s.closeHead). Callers hold db.mu exclusively (the data lock is
// not needed: the mutation barrier excludes all mutators).
func (db *DB) snapshotLocked() ([]byte, error) {
	names := make([]string, 0, len(db.measurements))
	total := 0
	for name, m := range db.measurements {
		names = append(names, name)
		total += len(m.series)
	}
	sort.Strings(names)
	out := []byte(snapshotMagic)
	out = binary.AppendUvarint(out, uint64(total))
	for _, name := range names {
		m := db.measurements[name]
		// A series' identity is its key with the tag count put in: the key
		// already spells the length-prefixed measurement, then the tag
		// pairs the same way in key order.
		id := len(binary.AppendUvarint(nil, uint64(len(m.name)))) + len(m.name)
		for _, s := range m.series {
			out = append(out, s.key[:id]...)
			out = binary.AppendUvarint(out, uint64(len(s.tags)))
			out = append(out, s.key[id:]...)
			chunks := len(s.blocks)
			var headBlob []byte
			if s.open.rows > 0 {
				hb, err := s.closeHead()
				if err != nil {
					return nil, fmt.Errorf("tsdb: snapshot %s: %w", m.name, err)
				}
				headBlob = hb.blob
				chunks++
			}
			out = binary.AppendUvarint(out, uint64(chunks))
			for _, b := range s.blocks {
				out = append(out, chunkSealed)
				out = binary.AppendUvarint(out, uint64(len(b.blob)))
				out = append(out, b.blob...)
			}
			if headBlob != nil {
				out = append(out, chunkHead)
				out = binary.AppendUvarint(out, uint64(len(headBlob)))
				out = append(out, headBlob...)
			}
		}
	}
	return out, nil
}

// loadSnapshot rebuilds the store from a columnar snapshot. Sealed
// chunks are adopted verbatim (their blobs alias the snapshot buffer,
// which is immutable once loaded); the head chunk's rows append back
// into the series' open block. Runs before the DB is shared — no locks.
func (db *DB) loadSnapshot(snap []byte) error {
	data := snap[len(snapshotMagic):]
	p := 0
	uvar := func() (int, error) {
		v, n := binary.Uvarint(data[p:])
		if n <= 0 || v > uint64(len(data)) {
			return 0, errBlockCorrupt
		}
		p += n
		return int(v), nil
	}
	str := func() (string, error) {
		l, err := uvar()
		if err != nil || l > len(data)-p {
			return "", errBlockCorrupt
		}
		s := string(data[p : p+l])
		p += l
		return s, nil
	}
	nseries, err := uvar()
	if err != nil {
		return err
	}
	var tags []rowKV
	for si := 0; si < nseries; si++ {
		meas, err := str()
		if err != nil {
			return err
		}
		if meas == "" {
			return errBlockCorrupt
		}
		ntags, err := uvar()
		if err != nil {
			return err
		}
		tags = tags[:0]
		for i := 0; i < ntags; i++ {
			k, err := str()
			if err != nil {
				return err
			}
			v, err := str()
			if err != nil {
				return err
			}
			if i > 0 && k <= tags[i-1].key { // the writer sorts them: the order spells the series key
				return errBlockCorrupt
			}
			tags = append(tags, rowKV{key: k, str: v})
		}
		s := db.seriesFor(db.measurementFor(meas), tags)
		nchunks, err := uvar()
		if err != nil {
			return err
		}
		for c := 0; c < nchunks; c++ {
			if p >= len(data) {
				return errBlockCorrupt
			}
			kind := data[p]
			p++
			blen, err := uvar()
			if err != nil || blen > len(data)-p {
				return errBlockCorrupt
			}
			b, err := decodeBlock(data[p : p+blen])
			if err != nil {
				return err
			}
			p += blen
			if kind == chunkSealed {
				db.adoptBlock(s, b)
			} else if err := db.adoptHead(s, b); err != nil {
				return err
			}
		}
	}
	if p != len(data) {
		return errBlockCorrupt
	}
	return nil
}

// adoptFields registers a recovered block's fields on its series, so
// later head inserts reuse the columns.
func (db *DB) adoptFields(s *memSeries, b *block) {
	for i := range b.fields {
		s.fieldCol(b.fields[i].name, db.intern)
	}
}

// adoptBlock attaches a recovered sealed block to a series, with the
// same stats accounting a live seal performs.
func (db *DB) adoptBlock(s *memSeries, b *block) {
	db.adoptFields(s, b)
	s.blocks = append(s.blocks, b)
	st := &db.stats
	st.sealedBytes += int64(len(b.blob))
	st.sealedRows += int64(b.rows)
	st.sealedValues += int64(b.values)
	st.blocks++
	db.points += uint64(b.rows)
	db.values += uint64(b.values)
}

// adoptHead appends a head chunk's rows into the series' open block,
// which must be empty: a snapshot holds one head chunk per series.
func (db *DB) adoptHead(s *memSeries, b *block) error {
	if s.open.rows > 0 {
		return errBlockCorrupt
	}
	db.adoptFields(s, b)
	var sc scratch
	if _, _, err := (unit{b: b}).columns(s.open.fieldNames(), 0, 0, &sc); err != nil {
		return err
	}
	s.open.appendRows(sc.times, sc.cols)
	st := &db.stats
	st.headRows += int64(b.rows)
	st.headBytes += int64(s.open.bytes)
	db.points += uint64(b.rows)
	db.values += uint64(b.values)
	return nil
}

// Compact folds the current state into an atomic snapshot and resets
// the WAL — bounding recovery time and log growth. Crash-safe at every
// step (see storage.Store.Compact). No-op in memory; after Close or
// Crash it returns storage.ErrClosed.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store == nil {
		return nil
	}
	snap, err := db.snapshotLocked()
	if err != nil {
		return err
	}
	return db.store.Compact(snap)
}

// Close flushes and releases the data directory. The DB stays readable
// (it is just memory) but further writes return storage.ErrClosed.
// No-op in memory, and on a closed or crashed DB.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store.Close()
}

// Crash simulates the process dying without a flush: the WAL keeps only
// what the fsync policy had already made stable, and the DB is closed.
// With fsync=always no acknowledged point is lost; weaker policies lose
// the unsynced suffix — which is exactly what the recovery oracles
// probe. Test/simulation use only.
func (db *DB) Crash() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store.Crash()
}
