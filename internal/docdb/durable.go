package docdb

import (
	"encoding/json"
	"fmt"
	"sort"

	"pmove/internal/storage"
)

// Durability for the embedded docdb: Open binds a DB to a data
// directory managed by internal/storage. Every mutating op (insert,
// replace, setfield, delete — upsert decomposes into the first two) is
// WAL-logged as one JSON record before it commits, in its fully
// resolved form: inserts carry the assigned _id and the collection's id
// sequence, setfields the JSON-normalised value. Replaying
// snapshot+WAL therefore reconstructs byte-identical state, including
// the generator state future inserts draw ids from.

// walOp is one logged mutation. Seq is the collection's id-generation
// sequence after the op (inserts only), restored on replay so recovered
// stores never re-issue an id.
type walOp struct {
	Op         string  `json:"op"`
	Collection string  `json:"c"`
	Doc        Doc     `json:"doc,omitempty"`
	ID         string  `json:"id,omitempty"`
	Path       string  `json:"path,omitempty"`
	Value      any     `json:"value,omitempty"`
	Filter     *Filter `json:"filter,omitempty"`
	Seq        uint64  `json:"seq,omitempty"`
}

// snapshotImage is the compacted whole-database encoding.
type snapshotImage struct {
	Collections map[string]snapshotCollection `json:"collections"`
}

type snapshotCollection struct {
	Seq  uint64         `json:"seq"`
	Docs map[string]Doc `json:"docs"`
}

// beginMutation enters the mutation side of the compaction barrier and
// returns the release hook — called by every mutating Collection method
// BEFORE taking c.mu (lock order: compactMu, c.mu, DB.mu). While held,
// Compact/Close/Crash cannot run, so a WAL append and its in-memory
// commit are atomic with respect to snapshots.
func (c *Collection) beginMutation() func() {
	if c.db == nil {
		return func() {}
	}
	c.db.compactMu.RLock()
	return c.db.compactMu.RUnlock
}

// logLocked appends one mutation to the owning DB's WAL (no-op in
// memory). Callers hold c.mu; a failed append — storage.ErrClosed on a
// closed DB among them — aborts the mutation so memory never runs ahead
// of what recovery can reconstruct.
func (c *Collection) logLocked(op walOp) error {
	if c.db == nil || c.db.store == nil {
		return nil
	}
	b, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("docdb: encode wal op: %w", err)
	}
	if _, err := c.db.store.Append(b); err != nil {
		return fmt.Errorf("docdb: wal append: %w", err)
	}
	return nil
}

// Open opens (creating if needed) a durable DB at dir, replaying the
// snapshot then every WAL record newer than it. A torn final record
// (crash mid-append) is truncated by the storage layer; mid-file
// corruption errors rather than silently dropping acknowledged ops.
func Open(dir string, pol storage.FsyncPolicy) (*DB, error) {
	st, rec, err := storage.Open(dir, pol)
	if err != nil {
		return nil, err
	}
	db := New()
	if len(rec.Snapshot) > 0 {
		var img snapshotImage
		if err := json.Unmarshal(rec.Snapshot, &img); err != nil {
			st.Close()
			return nil, fmt.Errorf("docdb: decode snapshot %s: %w", dir, err)
		}
		for name, sc := range img.Collections {
			c := db.Collection(name)
			c.seq = sc.Seq
			for id, d := range sc.Docs {
				c.docs[id] = d
			}
		}
	}
	for _, r := range rec.Records {
		var op walOp
		if err := json.Unmarshal(r.Data, &op); err != nil {
			st.Close()
			return nil, fmt.Errorf("docdb: decode wal record %d in %s: %w", r.Seq, dir, err)
		}
		if err := db.applyOp(op); err != nil {
			st.Close()
			return nil, fmt.Errorf("docdb: replay record %d in %s: %w", r.Seq, dir, err)
		}
	}
	db.store = st
	return db, nil
}

// applyOp replays one logged mutation without re-logging it.
func (db *DB) applyOp(op walOp) error {
	c := db.Collection(op.Collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op.Op {
	case "insert":
		id := op.Doc.ID()
		if id == "" {
			return fmt.Errorf("logged insert without _id")
		}
		if _, exists := c.docs[id]; exists {
			return fmt.Errorf("logged insert of duplicate _id %q", id)
		}
		c.docs[id] = op.Doc
		if op.Seq > c.seq {
			c.seq = op.Seq
		}
	case "replace":
		c.docs[op.ID] = op.Doc
	case "setfield":
		if _, ok := c.docs[op.ID]; !ok {
			return fmt.Errorf("logged setfield on missing _id %q", op.ID)
		}
		c.setFieldLocked(op.ID, op.Path, op.Value)
	case "delete":
		c.deleteLocked(op.Filter)
	default:
		return fmt.Errorf("unknown logged op %q", op.Op)
	}
	return nil
}

// WALPath returns the write-ahead log path ("" for in-memory DBs).
func (db *DB) WALPath() string { return db.store.WALPath() }

// Sync forces the WAL to stable storage. No-op in memory.
func (db *DB) Sync() error { return db.store.Sync() }

// Compact folds the current state into an atomic snapshot and resets
// the WAL. The compaction barrier keeps mutations out while the
// snapshot is cut, so it is a true quiescent point: every logged record
// is reflected in it, and recovery's overlap filter makes a crash
// anywhere inside Compact harmless. No-op in memory; after Close or
// Crash it returns storage.ErrClosed.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if db.store == nil {
		return nil
	}
	db.mu.RLock()
	cols := make(map[string]*Collection, len(db.collections))
	for n, c := range db.collections {
		cols[n] = c
	}
	db.mu.RUnlock()
	img := snapshotImage{Collections: map[string]snapshotCollection{}}
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := cols[n]
		c.mu.RLock()
		sc := snapshotCollection{Seq: c.seq, Docs: make(map[string]Doc, len(c.docs))}
		for id, d := range c.docs {
			sc.Docs[id] = d.Clone()
		}
		c.mu.RUnlock()
		img.Collections[n] = sc
	}
	b, err := json.Marshal(img)
	if err != nil {
		return fmt.Errorf("docdb: encode snapshot: %w", err)
	}
	return db.store.Compact(b)
}

// Close flushes and releases the data directory; reads keep working,
// further mutations return storage.ErrClosed. No-op in memory, and on a
// closed or crashed DB.
func (db *DB) Close() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	return db.store.Close()
}

// Crash simulates dying without a flush: the WAL keeps only what the
// fsync policy already made stable, and the DB is closed.
// Test/simulation use only.
func (db *DB) Crash() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	return db.store.Crash()
}
