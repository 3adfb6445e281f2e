package kb

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"

	"pmove/internal/docdb"
	"pmove/internal/ontology"
)

// Collection names used in the document database.
const (
	CollInterfaces = "kb_interfaces"
	CollEntries    = "kb_entries"
	CollMeta       = "kb_meta"
)

// Persist writes the KB into the document database (Figure 3 step ③:
// "Once the KB is generated, it is inserted into MongoDB … Step ③
// re-occurs every time KB changes"). Every document is upserted by its
// deterministic _id and none is deleted, so Persist is idempotent and a
// host's stored KB only grows by entries, as the paper's KB does.
//
// The first Persist of k into db adopts the host's stored entries that
// k lacks — a fresh KB from Generate thereby carries the host's history
// — and writes every interface, entry and the meta document. A later
// Persist into the same db writes only the entries attached since, one
// record each.
func (k *KB) Persist(db *docdb.DB) error {
	if k.db != db || k.persisted > len(k.Entries) {
		if err := k.persistAll(db); err != nil {
			return err
		}
	}
	entries := db.Collection(CollEntries)
	for _, e := range k.Entries[k.persisted:] {
		if err := upsert(entries, e, map[string]any{"_id": e.EntryID(), "host": k.Host, "kind": string(e.Kind())}); err != nil {
			return err
		}
		k.persisted++
	}
	return nil
}

// persistAll adopts the host's stored entries that k lacks, ahead of
// k's own, and writes every interface and the meta document. It counts
// the adopted entries as written and leaves k's own to Persist.
func (k *KB) persistAll(db *docdb.DB) error {
	stored, err := storedEntries(db, k.Host)
	if err != nil {
		return err
	}
	adopted := stored[:0]
	for _, e := range stored {
		if !slices.ContainsFunc(k.Entries, func(have Entry) bool { return have.EntryID() == e.EntryID() }) {
			adopted = append(adopted, e)
		}
	}
	k.Entries = append(adopted, k.Entries...)
	ifaces := db.Collection(CollInterfaces)
	for _, n := range k.Nodes() {
		if err := upsert(ifaces, n.Interface, map[string]any{"_id": n.ID, "host": k.Host, "kind": string(n.Kind), "parent": n.Parent}); err != nil {
			return err
		}
	}
	meta := map[string]any{"root": k.root, "config": k.Config, "nodes": k.Len()}
	if err := upsert(db.Collection(CollMeta), meta, map[string]any{"_id": "meta:" + k.Host, "host": k.Host}); err != nil {
		return err
	}
	k.db, k.persisted = db, len(adopted)
	return nil
}

// upsert stores v's document, with keys set over it, by its _id.
func upsert(c *docdb.Collection, v any, keys map[string]any) error {
	doc, err := docdb.FromValue(v)
	if err != nil {
		return fmt.Errorf("kb: persist %s: %w", keys["_id"], err)
	}
	maps.Copy(doc, keys)
	_, err = c.Upsert(doc)
	return err
}

// Load reconstructs a KB for a host from the document database.
func Load(db *docdb.DB, host string) (*KB, error) {
	meta := db.Collection(CollMeta)
	md, ok := meta.Get("meta:" + host)
	if !ok {
		return nil, fmt.Errorf("kb: no persisted KB for host %q", host)
	}
	root, _ := md["root"].(string)
	k := &KB{Host: host, nodes: map[string]*Node{}, root: root}
	if cfgRaw, ok := md["config"]; ok {
		b, _ := json.Marshal(cfgRaw)
		if err := json.Unmarshal(b, &k.Config); err != nil {
			return nil, fmt.Errorf("kb: load config: %w", err)
		}
	}

	hostFilter := &docdb.Filter{Eq: map[string]any{"host": host}}
	for _, doc := range db.Collection(CollInterfaces).Find(hostFilter) {
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		iface, err := ontology.ParseInterface(b)
		if err != nil {
			return nil, fmt.Errorf("kb: load %s: %w", doc.ID(), err)
		}
		kind, _ := doc["kind"].(string)
		parent, _ := doc["parent"].(string)
		ordinal := 0
		if v, ok := iface.Property("__ordinal").(float64); ok {
			ordinal = int(v)
		}
		k.nodes[iface.ID] = &Node{
			ID: iface.ID, Kind: ontology.ComponentKind(kind), Ordinal: ordinal,
			Interface: iface, Parent: parent,
		}
	}
	// Rebuild children lists from parents.
	for _, n := range k.nodes {
		if p, ok := k.nodes[n.Parent]; ok {
			p.Children = append(p.Children, n.ID)
		}
	}
	for _, n := range k.nodes {
		sort.Strings(n.Children)
	}
	entries, err := storedEntries(db, host)
	if err != nil {
		return nil, err
	}
	k.Entries = entries
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("kb: loaded KB invalid: %w", err)
	}
	return k, nil
}

// storedEntries reads a host's stored entries, ordered by _id.
func storedEntries(db *docdb.DB, host string) ([]Entry, error) {
	var out []Entry
	for _, doc := range db.Collection(CollEntries).Find(&docdb.Filter{Eq: map[string]any{"host": host}}) {
		e, err := entryFromDoc(doc)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// entryFromDoc reconstructs a typed entry from its stored document.
func entryFromDoc(doc docdb.Doc) (Entry, error) {
	kind, _ := doc["kind"].(string)
	var e Entry
	switch ontology.EntryKind(kind) {
	case ontology.EntryObservation, ontology.EntryTSObservation, ontology.EntryAGGObservation:
		e = &Observation{}
	case ontology.EntryBenchmark:
		e = &Benchmark{}
	case ontology.EntryProcess:
		e = &Process{}
	default:
		return nil, fmt.Errorf("kb: unknown entry kind %q in document %s", kind, doc.ID())
	}
	b, err := json.Marshal(doc)
	if err == nil {
		err = json.Unmarshal(b, e)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}
