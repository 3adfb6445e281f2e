package docdb

import (
	"encoding/json"
	"fmt"

	"pmove/internal/storage"
)

// Durability for the embedded docdb: Open binds a DB to a data
// directory managed by internal/storage. Every upsert is WAL-logged as
// one JSON record before it commits, in one shape whether it inserts or
// replaces: {"op":"replace","c":<collection>,"doc":<the admitted
// document>,"id":<_id>}. Replaying snapshot+WAL therefore reconstructs
// byte-identical state. Replay also reads a data directory written when
// the store generated ids: its "insert" records ({"op","c","doc","seq"})
// are puts by the document's own _id, and the id sequence they and the
// snapshot's collections carry is ignored.

// walOp is one logged upsert.
type walOp struct {
	Op         string `json:"op"`
	Collection string `json:"c"`
	Doc        Doc    `json:"doc,omitempty"`
	ID         string `json:"id,omitempty"`
}

// snapshotImage is the compacted whole-database encoding.
type snapshotImage struct {
	Collections map[string]snapshotCollection `json:"collections"`
}

type snapshotCollection struct {
	Docs map[string]Doc `json:"docs"`
}

// beginMutation enters the mutation side of the compaction barrier and
// returns the release hook — called by Upsert BEFORE taking c.mu (lock
// order: compactMu, c.mu, DB.mu). While held, Compact/Close/Crash cannot
// run, so a WAL append and its in-memory commit are atomic with respect
// to snapshots.
func (c *Collection) beginMutation() func() {
	if c.db == nil {
		return func() {}
	}
	c.db.compactMu.RLock()
	return c.db.compactMu.RUnlock
}

// logLocked appends one upsert to the owning DB's WAL (no-op in
// memory). Callers hold c.mu; a failed append — storage.ErrClosed on a
// closed DB among them — aborts the upsert so memory never runs ahead
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

// applyOp replays one logged upsert without re-logging it. Open runs it
// before the DB is shared, so it takes no lock.
func (db *DB) applyOp(op walOp) error {
	switch op.Op {
	case "insert": // a put logged when the store generated ids
		op.ID = op.Doc.ID()
	case "replace":
	default:
		return fmt.Errorf("unknown logged op %q", op.Op)
	}
	if op.ID == "" {
		return fmt.Errorf("logged %s without _id", op.Op)
	}
	db.Collection(op.Collection).docs[op.ID] = op.Doc
	return nil
}

// WALPath returns the write-ahead log path ("" for in-memory DBs).
func (db *DB) WALPath() string { return db.store.WALPath() }

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
	// compactMu keeps every mutation out until the image is marshalled,
	// so the stored documents are encoded in place, not copied.
	img := snapshotImage{Collections: map[string]snapshotCollection{}}
	db.mu.RLock()
	for n, c := range db.collections {
		img.Collections[n] = snapshotCollection{Docs: c.docs}
	}
	db.mu.RUnlock()
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
