// Package docdb is the document-database substrate standing in for
// MongoDB 6: named collections of JSON documents, each put by its _id
// and found by id or by nested-path equality filters. P-MoVE stores the
// Knowledge Base here "as JSON-LD extended with entries for each
// computation", with pointer fields linking to time-series data in the
// tsdb (paper §III-A).
package docdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"pmove/internal/storage"
)

// Doc is a JSON document. The stored form always carries an "_id" string.
type Doc map[string]any

// ID returns the document id, or "".
func (d Doc) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// ErrUnencodable marks a document or value with no JSON form: a NaN or
// infinite number, a cycle, nesting past maxDepth, a func, chan or complex.
var ErrUnencodable = errors.New("docdb: unencodable document")

// maxDepth is encoding/json's nesting limit: json.Unmarshal refuses a
// document nested deeper, so Clone does too, and a cycle reaches it.
const maxDepth = 10000

var errTooDeep = fmt.Errorf("%w: nested deeper than %d", ErrUnencodable, maxDepth)

// storeDepth is how deep the store's own records nest a document: a
// snapshot four levels (image, collections, collection, docs), a WAL
// record one. A document enters the store counted from there, so what
// the store accepts, Open can decode again.
const storeDepth = 4

// admit copies a document entering the store, as Clone does but bounded
// by storeDepth.
func admit(d Doc) (Doc, error) {
	norm, err := clone(d, storeDepth)
	m, _ := norm.(map[string]any)
	return m, err
}

// Clone deep-copies a document into exactly what a JSON round trip —
// json.Marshal, then json.Unmarshal into a Doc — gives, and fails with
// ErrUnencodable where that fails. Documents are stored and returned by
// value so callers cannot alias the store.
func (d Doc) Clone() (Doc, error) { return FromValue(d) }

// clone copies v, nested in depth arrays and objects, into the form
// json.Unmarshal yields. The generic forms are copied structurally; any
// other leaf, and any string or key that is not valid UTF-8, goes
// through JSON, which turns each invalid byte into U+FFFD — so keys can
// meet, and JSON's sorted key order picks the survivor.
func clone(v any, depth int) (any, error) {
	switch x := v.(type) {
	case nil, bool:
		return x, nil
	case string:
		if utf8.ValidString(x) {
			return x, nil
		}
	case float64:
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return x, nil
		}
	case Doc:
		return clone(map[string]any(x), depth)
	case map[string]any:
		if x == nil {
			return nil, nil
		}
		if depth >= maxDepth {
			return nil, errTooDeep
		}
		out := make(map[string]any, len(x))
		for k, e := range x {
			if !utf8.ValidString(k) {
				return viaJSON(x, depth)
			}
			var err error
			if out[k], err = clone(e, depth+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case []any:
		if x == nil {
			return nil, nil
		}
		if depth >= maxDepth {
			return nil, errTooDeep
		}
		out := make([]any, len(x))
		for i, e := range x {
			var err error
			if out[i], err = clone(e, depth+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return viaJSON(v, depth)
}

// viaJSON is clone's JSON round trip for one value.
func viaJSON(v any, depth int) (any, error) {
	var out any
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, &out)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnencodable, err)
	}
	if depth == 0 {
		return out, nil
	}
	// json.Unmarshal bounded out's own nesting; walking it bounds it
	// where it sits.
	return clone(out, depth)
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
	// Eq maps dot paths to required values, compared as Clone stores
	// them (so ints match float64s).
	Eq map[string]any
}

// Matches reports whether the document satisfies the filter.
func (f *Filter) Matches(d Doc) bool {
	for path, want := range f.Eq {
		got, ok := d.Lookup(path)
		norm, err := clone(want, 0)
		if !ok || err != nil || !reflect.DeepEqual(got, norm) {
			return false
		}
	}
	return true
}

// Collection is a set of documents.
type Collection struct {
	mu   sync.RWMutex
	name string
	docs map[string]Doc
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

// Upsert stores d under its _id, inserting or replacing, and returns
// the id. The document is admitted, logged and stored under one hold of
// the collection lock, so concurrent upserts of one id all succeed and
// the last one logged is the one stored. A document without an _id is
// refused and changes nothing.
func (c *Collection) Upsert(d Doc) (string, error) {
	stored, err := admit(d)
	if err != nil {
		return "", fmt.Errorf("%w in %s", err, c.name)
	}
	id := stored.ID()
	if id == "" {
		return "", fmt.Errorf("docdb: upsert of a document without _id into %s", c.name)
	}
	defer c.beginMutation()()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.logLocked(walOp{Op: "replace", Collection: c.name, ID: id, Doc: stored}); err != nil {
		return "", err
	}
	c.docs[id] = stored
	return id, nil
}

// Get fetches a document by id.
func (c *Collection) Get(id string) (Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	out, _ := d.Clone() // stored documents came through admit: no error
	return out, true
}

// Find returns all documents matching the filter, ordered by _id. A nil
// filter matches everything.
func (c *Collection) Find(f *Filter) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Doc
	for _, d := range c.docs {
		if f == nil || f.Matches(d) {
			cp, _ := d.Clone() // stored documents came through admit: no error
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// FromValue converts any JSON-able Go value into a Doc: what
// json.Unmarshal of the value's JSON into a Doc would give.
func FromValue(v any) (Doc, error) {
	norm, err := clone(v, 0)
	d, ok := norm.(map[string]any)
	if err == nil && !ok && norm != nil {
		err = fmt.Errorf("docdb: a %T is not a document", v)
	}
	return d, err
}
