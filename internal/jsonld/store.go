package jsonld

import (
	"sort"
	"sync"
)

// Store is an indexed RDF triple store supporting pattern queries with
// wildcards. It provides the linked-data connections the KB exposes
// ("the establishment of linked-data connections, and the generation of
// queries for advanced analysis").
type Store struct {
	mu      sync.RWMutex
	triples []Triple
	// Indexes from subject / predicate / object key to triple positions.
	bySubject   map[string][]int
	byPredicate map[string][]int
	byObject    map[string][]int
	dedup       map[string]bool
}

// NewStore creates an empty triple store.
func NewStore() *Store {
	return &Store{
		bySubject:   map[string][]int{},
		byPredicate: map[string][]int{},
		byObject:    map[string][]int{},
		dedup:       map[string]bool{},
	}
}

// Add inserts a triple; duplicates are ignored. Returns true if inserted.
func (s *Store) Add(t Triple) bool {
	key := t.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dedup[key] {
		return false
	}
	s.dedup[key] = true
	i := len(s.triples)
	s.triples = append(s.triples, t)
	s.bySubject[t.Subject] = append(s.bySubject[t.Subject], i)
	s.byPredicate[t.Predicate] = append(s.byPredicate[t.Predicate], i)
	s.byObject[t.Object.String()] = append(s.byObject[t.Object.String()], i)
	return true
}

// AddDocument expands a JSON-LD document and inserts its triples,
// returning how many were new.
func (s *Store) AddDocument(d Document) (int, error) {
	ts, err := ExpandTriples(d)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range ts {
		if s.Add(t) {
			n++
		}
	}
	return n, nil
}

// Len returns the number of stored triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.triples)
}

// Pattern is a triple query; empty strings are wildcards. Object matches
// against either the IRI or the literal text.
type Pattern struct {
	Subject   string
	Predicate string
	Object    string
}

// Query returns all triples matching the pattern, in insertion order.
func (s *Store) Query(p Pattern) []Triple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Choose the most selective index available.
	var candidates []int
	switch {
	case p.Subject != "":
		candidates = s.bySubject[p.Subject]
	case p.Predicate != "":
		candidates = s.byPredicate[p.Predicate]
	case p.Object != "":
		// The object index is keyed by rendered term; IRIs hit the index,
		// literal matches fall back to a scan below.
		candidates = append(candidates, s.byObject["<"+p.Object+">"]...)
		litKey := Term{Literal: p.Object, Datatype: "xsd:string"}.String()
		candidates = append(candidates, s.byObject[litKey]...)
		for key, idxs := range s.byObject {
			if key != litKey && len(key) > 0 && key[0] == '"' {
				candidates = append(candidates, idxs...)
			}
		}
		sort.Ints(candidates)
	default:
		candidates = make([]int, len(s.triples))
		for i := range candidates {
			candidates[i] = i
		}
	}
	var out []Triple
	for _, i := range candidates {
		t := s.triples[i]
		if p.Subject != "" && t.Subject != p.Subject {
			continue
		}
		if p.Predicate != "" && t.Predicate != p.Predicate {
			continue
		}
		if p.Object != "" && t.Object.IRI != p.Object && t.Object.Literal != p.Object {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Neighbors returns the object IRIs reachable from a subject via any
// predicate — the link-following primitive for KB navigation.
func (s *Store) Neighbors(subject string) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range s.Query(Pattern{Subject: subject}) {
		if !t.Object.IsLiteral() && !seen[t.Object.IRI] {
			seen[t.Object.IRI] = true
			out = append(out, t.Object.IRI)
		}
	}
	sort.Strings(out)
	return out
}

// PathExists reports whether object `to` is reachable from subject `from`
// by following IRI links (BFS).
func (s *Store) PathExists(from, to string) bool {
	if from == to {
		return true
	}
	visited := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range s.Neighbors(cur) {
			if n == to {
				return true
			}
			if !visited[n] {
				visited[n] = true
				queue = append(queue, n)
			}
		}
	}
	return false
}
