package docdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pmove/internal/storage"
)

// roundTrip is the oracle Clone must equal: the JSON round trip it
// replaced.
func roundTrip(d Doc) (Doc, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var out Doc
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkClone asserts that Clone and the round trip agree on d: both
// fail, Clone with ErrUnencodable, or both give deeply equal documents
// — and that writing all through the clone leaves d as it was.
func checkClone(t *testing.T, name string, d Doc) {
	t.Helper()
	want, werr := roundTrip(d)
	got, gerr := d.Clone()
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("%s: Clone error %v, round trip error %v", name, gerr, werr)
	case gerr != nil && !errors.Is(gerr, ErrUnencodable):
		t.Errorf("%s: Clone error %v is not ErrUnencodable", name, gerr)
	case !reflect.DeepEqual(got, want):
		t.Errorf("%s: Clone\n got %#v\nwant %#v", name, got, want)
	case gerr == nil:
		scribble(map[string]any(got))
		if again, _ := roundTrip(d); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: writing to the clone changed the original", name)
		}
	}
}

// scribble overwrites every object entry and array element in v,
// deepest first.
func scribble(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			scribble(e)
			x[k] = "scribbled"
		}
	case []any:
		for i, e := range x {
			scribble(e)
			x[i] = "scribbled"
		}
	}
}

type point struct {
	X    int     `json:"x"`
	Tags []byte  `json:"tags,omitempty"`
	Next *point  `json:"next,omitempty"`
	Skip float64 `json:"-"`
}

type failingMarshaler struct{}

func (failingMarshaler) MarshalJSON() ([]byte, error) { return nil, errors.New("refused") }

// nest wraps leaf in n maps, so a document nest(leaf, n) holds leaf
// inside n+1 objects.
func nest(leaf any, n int) Doc {
	for i := 0; i < n; i++ {
		leaf = map[string]any{"k": leaf}
	}
	return Doc{"k": leaf}
}

// chain is a typed value whose JSON nests n objects deep.
func chain(n int) *point {
	var p *point
	for i := 0; i < n; i++ {
		p = &point{X: i, Next: p}
	}
	return p
}

func TestCloneMatchesJSONRoundTrip(t *testing.T) {
	cyclicMap := map[string]any{}
	cyclicMap["self"] = cyclicMap
	cyclicSlice := []any{nil}
	cyclicSlice[0] = cyclicSlice
	cases := map[string]Doc{
		"nil doc":   nil,
		"empty doc": {},
		"generic": {"s": "v", "f": 1.5, "neg0": math.Copysign(0, -1), "t": true, "n": nil,
			"m": map[string]any{"a": []any{1.0, "x", []any{}, map[string]any{}}}},
		"ints":          {"i": 3, "i64": int64(-7), "u8": uint8(200), "f32": float32(0.1), "big": uint64(1 << 63)},
		"json.Number":   {"n": json.Number("12.50"), "e": json.Number("1e3")},
		"bad Number":    {"n": json.Number("twelve")},
		"struct":        {"p": point{X: 1, Tags: []byte("hi"), Skip: 9}},
		"pointer":       {"p": &point{X: 2, Next: &point{X: 3}}, "nilp": (*point)(nil)},
		"typed slices":  {"ints": []int{1, 2}, "strs": []string{"a", "\xff"}, "bytes": []byte{0, 1, 255}, "nilbytes": []byte(nil)},
		"typed maps":    {"m": map[string]int{"a": 1}, "im": map[int]string{2: "b"}, "nested": map[string][]float32{"z": {0.5}}},
		"raw message":   {"r": json.RawMessage(` {"a": [1, 2] } `)},
		"bad raw":       {"r": json.RawMessage(`{"a":`)},
		"nested Doc":    {"d": Doc{"x": Doc{"y": 1.0}}, "in list": []any{Doc{"z": "w"}}},
		"typed nils":    {"doc": Doc(nil), "map": map[string]any(nil), "list": []any(nil), "tmap": map[string]int(nil), "tlist": []string(nil)},
		"nil in list":   {"l": []any{Doc(nil), map[string]any(nil), []any(nil), nil}},
		"bad utf8":      {"a\xffb": "c\xed\xa0\x80d", "ok": []any{"\xfe", "snow ☃"}},
		"keys meet":     {"\xff": 1.0, "\xfe": 2.0, "�": 3.0},
		"valid wins":    {"\x80": 1.0, "�": 2.0},
		"nested meet":   {"m": map[string]any{"\xc0": "a", "\xc1": "b"}},
		"escapes":       {"<&>  \x00\t\"\\": "<&>  \x00\t\"\\"},
		"NaN":           {"x": math.NaN()},
		"+Inf":          {"x": math.Inf(1)},
		"-Inf":          {"x": []any{math.Inf(-1)}},
		"float32 NaN":   {"x": float32(math.NaN())},
		"NaN meets":     {"\xff": 1.0, "\xfe": math.NaN()},
		"cyclic map":    {"c": cyclicMap},
		"cyclic slice":  {"c": cyclicSlice},
		"func":          {"f": func() {}},
		"chan":          {"c": make(chan int)},
		"complex":       {"c": complex(1, 2)},
		"marshaler err": {"m": failingMarshaler{}},
		"depth limit":   nest(1.0, maxDepth-1),
		"past depth":    nest(1.0, maxDepth),
		"empty at edge": nest([]any{}, maxDepth-2),
		"past edge":     nest(map[string]any{}, maxDepth-1),
		"nil past edge": nest([]any(nil), maxDepth-1),
		"leaf fits":     nest(chain(20), maxDepth-21),
		"leaf too deep": nest(chain(20), maxDepth-20),
	}
	for name, d := range cases {
		checkClone(t, name, d)
	}
}

// TestUnencodableDocumentIsAnError: a document with no JSON form is
// refused by Upsert, whether it would insert or replace, with an error
// naming the collection — not a panic — and leaves the store and its
// WAL as they were.
func TestUnencodableDocumentIsAnError(t *testing.T) {
	cyclic := map[string]any{}
	cyclic["self"] = cyclic
	bad := map[string]any{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
		"cycle": cyclic, "func": func() {}, "chan": make(chan int),
	}
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Collection("kb")
	if _, err := c.Upsert(Doc{"_id": "a", "v": 1.0}); err != nil {
		t.Fatal(err)
	}
	size := walSize(t, db)
	for name, v := range bad {
		docs := map[string]Doc{
			"upsert":        {"_id": "a", "x": []any{v}},
			"upsert nested": {"_id": "a", "m": map[string]any{"x": v}},
			"upsert new":    {"_id": "b", "x": v},
			"upsert no id":  {"x": v},
		}
		for op, d := range docs {
			_, err := c.Upsert(d)
			if !errors.Is(err, ErrUnencodable) || !strings.Contains(err.Error(), " in kb") {
				t.Errorf("%s of %s: err = %v, want ErrUnencodable naming kb", op, name, err)
			}
		}
	}
	if got, _ := c.Get("a"); !reflect.DeepEqual(got, Doc{"_id": "a", "v": 1.0}) || len(c.Find(nil)) != 1 {
		t.Errorf("refused writes changed the store: %v, %d docs", got, len(c.Find(nil)))
	}
	if n := walSize(t, db); n != size {
		t.Errorf("refused writes reached the WAL: %d -> %d bytes", size, n)
	}
	if _, err := FromValue(Doc{"x": math.NaN()}); !errors.Is(err, ErrUnencodable) {
		t.Errorf("FromValue(NaN) err = %v, want ErrUnencodable", err)
	}
	if _, err := FromValue([]any{1.0}); err == nil {
		t.Error("FromValue of a list made a document")
	}
}

// TestFilterComparesAsStored: an Eq value matches what Clone made of
// the same value in the document, whatever its Go type, and a value
// with no JSON form matches nothing.
func TestFilterComparesAsStored(t *testing.T) {
	vals := map[string]any{"_id": "a", "f32": float32(0.1), "int": 3, "list": []int{1, 2},
		"map": map[string]uint8{"a": 1}, "bad": "x\xff", "doc": Doc{"k": nil}}
	c := New().Collection("kb")
	if _, err := c.Upsert(Doc(vals)); err != nil {
		t.Fatal(err)
	}
	for path, v := range vals {
		if n := len(c.Find(&Filter{Eq: map[string]any{path: v}})); n != 1 {
			t.Errorf("Eq %s = %#v matched %d documents", path, v, n)
		}
	}
	if n := len(c.Find(&Filter{Eq: map[string]any{"f32": math.NaN()}})); n != 0 {
		t.Errorf("Eq NaN matched %d documents", n)
	}
}

// TestCompactBesideReadsAndWrites: Compact encodes the stored documents
// in place while readers and writers run (go test -race checks that
// compactMu keeps them apart), and recovery answers as the DB did.
func TestCompactBesideReadsAndWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("kb")
	for i := 0; i < 20; i++ {
		if _, err := c.Upsert(Doc{"_id": fmt.Sprint(i), "n": float64(i), "m": map[string]any{"l": []any{"x"}}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprint(i % 20)
				switch w {
				case 0:
					c.Find(&Filter{Eq: map[string]any{"m.l.0": "x"}})
				case 1:
					c.Get(id)
				default:
					if _, err := c.Upsert(Doc{"_id": id, "n": float64(i), "m": map[string]any{"l": []any{fmt.Sprint(i)}}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if err := db.Compact(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	want := c.Find(nil)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Collection("kb").Find(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
}

// threadDoc is shaped like a KB thread interface: an envelope and 17
// telemetry contents.
func threadDoc() Doc {
	contents := []any{map[string]any{
		"@id": "dtmi:dt:skx:thread0:property0;1", "@type": "Property", "name": "core", "description": 0.0,
	}}
	for i := 1; i <= 17; i++ {
		event := fmt.Sprintf("EVENT_%d:SUB", i)
		contents = append(contents, map[string]any{
			"@id": fmt.Sprintf("dtmi:dt:skx:thread0:telemetry%d;1", i), "@type": "HWTelemetry",
			"DBName": "perfevent_hwcounters_" + event, "FieldName": "_cpu0", "PMUName": "core",
			"SamplerName": event, "description": "PMU event " + event, "name": strings.ToLower(event),
		})
	}
	return Doc{
		"@context": "dtmi:dtdl:context;2", "@id": "dtmi:dt:skx:thread0;1", "@type": "Interface",
		"_id": "dtmi:dt:skx:thread0;1", "displayName": "cpu0", "host": "skx", "kind": "thread",
		"parent": "dtmi:dt:skx:core0;1", "contents": contents,
	}
}

// FuzzDocClone: on any JSON document, and on the raw input as key,
// string, bytes, number or raw JSON (which reach the invalid-UTF-8 and
// non-generic paths a decoded document never does), Clone equals the
// JSON round trip.
func FuzzDocClone(f *testing.F) {
	thread, _ := json.Marshal(threadDoc())
	f.Add(thread)
	f.Add([]byte(`{"a":{"b":[1,"x",null,true,{"c":-0}]}," ":"<>"}`))
	f.Add([]byte("{\"\xff\":1,\"\xfe\":2}"))
	f.Add([]byte(`1e400`))
	// Documents that once arrived as request frames: binary junk, an
	// insert, a bare op and a truncated object.
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(`{"op":"insert","collection":"c","doc":{"_id":"x","n":1}}`))
	f.Add([]byte(`{"op":"ping"}`))
	f.Add([]byte(`{"op":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Doc
		if json.Unmarshal(data, &d) != nil || d == nil {
			d = Doc{}
		}
		s := string(data)
		checkClone(t, "document", Doc{"doc": d, "again": []any{d}})
		checkClone(t, "raw key and string", Doc{s: []any{s, data, Doc{s: map[string]any{"�": s}}}})
		checkClone(t, "raw number", Doc{"n": json.Number(s)})
		checkClone(t, "raw JSON", Doc{"r": json.RawMessage(data)})
	})
}

func BenchmarkDocClone(b *testing.B) {
	d := threadDoc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}
