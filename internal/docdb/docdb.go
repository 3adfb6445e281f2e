// Package docdb is the document-database substrate standing in for
// MongoDB 6: named collections of JSON documents with generated ids,
// nested-path query filters, updates and deletes. P-MoVE stores the
// Knowledge Base here "as JSON-LD extended with entries for each
// computation", with pointer fields linking to time-series data in the
// tsdb (paper §III-A).
package docdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pmove/internal/storage"
)

// Doc is a JSON document. The stored form always carries an "_id" string.
type Doc map[string]any

// ID returns the document id, or "".
func (d Doc) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// Clone deep-copies a document through JSON (documents are stored and
// returned by value so callers cannot alias the store).
func (d Doc) Clone() Doc {
	b, err := json.Marshal(d)
	if err != nil {
		// Documents are built from JSON-able values; a cycle is a caller
		// bug surfaced loudly.
		panic(fmt.Sprintf("docdb: unclonable document: %v", err))
	}
	var out Doc
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("docdb: unclonable document: %v", err))
	}
	return out
}

// Lookup resolves a dot path ("contents.0.name") inside the document.
func (d Doc) Lookup(path string) (any, bool) {
	var cur any = map[string]any(d)
	for _, part := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[part]
			if !ok {
				return nil, false
			}
			cur = v
		case Doc:
			v, ok := node[part]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			idx, err := strconv.Atoi(part)
			if err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// Filter matches documents. All clauses must hold (AND semantics).
type Filter struct {
	// Eq maps dot paths to required values (compared after JSON
	// normalisation, so ints match float64s).
	Eq map[string]any
	// Exists lists dot paths that must be present.
	Exists []string
	// Prefix maps dot paths to required string prefixes (used for DTMI
	// subtree scans).
	Prefix map[string]string
}

// Matches reports whether the document satisfies the filter.
func (f *Filter) Matches(d Doc) bool {
	for path, want := range f.Eq {
		got, ok := d.Lookup(path)
		if !ok || !jsonEqual(got, want) {
			return false
		}
	}
	for _, path := range f.Exists {
		if _, ok := d.Lookup(path); !ok {
			return false
		}
	}
	for path, pre := range f.Prefix {
		got, ok := d.Lookup(path)
		if !ok {
			return false
		}
		s, ok := got.(string)
		if !ok || !strings.HasPrefix(s, pre) {
			return false
		}
	}
	return true
}

// jsonEqual compares two values modulo JSON number normalisation.
func jsonEqual(a, b any) bool {
	na, aok := toFloat(a)
	nb, bok := toFloat(b)
	if aok && bok {
		return na == nb
	}
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	if err1 != nil || err2 != nil {
		return false
	}
	return string(ab) == string(bb)
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}

// Collection is a set of documents.
type Collection struct {
	mu   sync.RWMutex
	name string
	docs map[string]Doc
	seq  uint64
	// db points back at the owning database so mutations reach its
	// write-ahead log; nil only in the zero value (never via DB).
	db *DB
}

// DB is a named set of collections: in-memory by default (New),
// optionally backed by a write-ahead log + snapshot data directory
// (Open) so acknowledged mutations survive a crash.
type DB struct {
	mu          sync.RWMutex // guards collections
	collections map[string]*Collection
	// compactMu serializes mutations (read side) against Compact/Close/
	// Crash (write side), so a snapshot is a quiescent point: every WAL
	// record it claims to cover has committed to memory, and none past
	// it have. Lock order: compactMu, then Collection.mu, then DB.mu.
	compactMu sync.RWMutex
	// store is the durability layer, set once by Open; nil in the
	// default in-memory mode. Once closed or crashed it refuses appends
	// (storage.ErrClosed): reads keep working, mutations are refused
	// rather than silently volatile.
	store *storage.Store
}

// New creates an empty database.
func New() *DB {
	return &DB{collections: map[string]*Collection{}}
}

// Collection returns (creating if needed) a named collection.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.collections[name]
	if c == nil {
		c = &Collection{name: name, docs: map[string]Doc{}, db: db}
		db.collections[name] = c
	}
	return c
}

// Collections lists collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n := range db.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert stores a document, generating an _id when absent, and returns the
// id. Inserting an id that already exists errors. On a durable DB the
// fully resolved document (id assigned) is WAL-logged before the insert
// commits, so replay regenerates identical state including the id.
func (c *Collection) Insert(d Doc) (string, error) {
	if d == nil {
		return "", fmt.Errorf("docdb: cannot insert nil document into %s", c.name)
	}
	stored := d.Clone()
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	id := stored.ID()
	if id == "" {
		c.seq++
		id = fmt.Sprintf("%s-%08d", c.name, c.seq)
		stored["_id"] = id
	}
	if _, exists := c.docs[id]; exists {
		return "", fmt.Errorf("docdb: duplicate _id %q in %s", id, c.name)
	}
	if err := c.putLocked(walOp{Op: "insert", Collection: c.name, Doc: stored, Seq: c.seq}); err != nil {
		return "", err
	}
	return id, nil
}

// putLocked logs a resolved insert or replace of op.Doc, then stores it.
// Callers hold c.mu and have checked the op against c.docs under it.
func (c *Collection) putLocked(op walOp) error {
	if err := c.logLocked(op); err != nil {
		return err
	}
	c.docs[op.Doc.ID()] = op.Doc
	return nil
}

// Get fetches a document by id.
func (c *Collection) Get(id string) (Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// Find returns all documents matching the filter, ordered by _id. A nil
// filter matches everything.
func (c *Collection) Find(f *Filter) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Doc
	for _, d := range c.docs {
		if f == nil || f.Matches(d) {
			out = append(out, d.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// FindOne returns the first match in id order.
func (c *Collection) FindOne(f *Filter) (Doc, bool) {
	docs := c.Find(f)
	if len(docs) == 0 {
		return nil, false
	}
	return docs[0], true
}

// Count returns the number of matching documents.
func (c *Collection) Count(f *Filter) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, d := range c.docs {
		if f == nil || f.Matches(d) {
			n++
		}
	}
	return n
}

// Replace overwrites the document with the given id. Errors if absent.
func (c *Collection) Replace(id string, d Doc) error {
	stored := d.Clone()
	stored["_id"] = id
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[id]; !ok {
		return fmt.Errorf("docdb: no document %q in %s", id, c.name)
	}
	return c.putLocked(walOp{Op: "replace", Collection: c.name, ID: id, Doc: stored})
}

// Upsert inserts or replaces by id; an empty id inserts fresh. Which of
// the two it is gets decided, logged and applied under one hold of the
// collection lock, so concurrent upserts of one fresh id all succeed:
// the first inserts, the rest replace.
func (c *Collection) Upsert(d Doc) (string, error) {
	id := d.ID()
	if id == "" {
		return c.Insert(d)
	}
	stored := d.Clone()
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.docs[id]; exists {
		return id, c.putLocked(walOp{Op: "replace", Collection: c.name, ID: id, Doc: stored})
	}
	return id, c.putLocked(walOp{Op: "insert", Collection: c.name, Doc: stored, Seq: c.seq})
}

// SetField sets a top-level or nested field (dot path; intermediate maps
// are created) on the document with the given id.
func (c *Collection) SetField(id, path string, value any) error {
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[id]; !ok {
		return fmt.Errorf("docdb: no document %q in %s", id, c.name)
	}
	// Normalise the value through JSON so reads are consistent — and so
	// the WAL-logged form replays to the identical stored value.
	b, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("docdb: unencodable value for %s: %w", path, err)
	}
	var norm any
	if err := json.Unmarshal(b, &norm); err != nil {
		return err
	}
	if err := c.logLocked(walOp{Op: "setfield", Collection: c.name, ID: id, Path: path, Value: norm}); err != nil {
		return err
	}
	c.setFieldLocked(id, path, norm)
	return nil
}

// setFieldLocked applies a normalised field write. Callers hold c.mu.
func (c *Collection) setFieldLocked(id, path string, norm any) {
	parts := strings.Split(path, ".")
	var cur map[string]any = c.docs[id]
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur[p].(map[string]any)
		if !ok {
			next = map[string]any{}
			cur[p] = next
		}
		cur = next
	}
	cur[parts[len(parts)-1]] = norm
}

// Delete removes documents matching the filter, returning how many.
// Durable DBs log the filter, not the victims: replaying it against the
// identically reconstructed state deletes the same documents.
func (c *Collection) Delete(f *Filter) int {
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.logLocked(walOp{Op: "delete", Collection: c.name, Filter: f}); err != nil {
		return 0
	}
	return c.deleteLocked(f)
}

// deleteLocked removes matching documents. Callers hold c.mu.
func (c *Collection) deleteLocked(f *Filter) int {
	n := 0
	for id, d := range c.docs {
		if f == nil || f.Matches(d) {
			delete(c.docs, id)
			n++
		}
	}
	return n
}

// FromJSON builds a Doc from raw JSON bytes.
func FromJSON(b []byte) (Doc, error) {
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("docdb: bad document JSON: %w", err)
	}
	return d, nil
}

// FromValue converts any JSON-able Go value into a Doc.
func FromValue(v any) (Doc, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("docdb: unencodable value: %w", err)
	}
	return FromJSON(b)
}
