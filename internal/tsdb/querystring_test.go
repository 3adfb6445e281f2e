package tsdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fmtQueryString is the fmt-built renderer Query.String replaced, kept
// as the reference its bytes must match.
func fmtQueryString(q *Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	n := 0
	for _, a := range q.Aggregates {
		if n > 0 {
			b.WriteString(", ")
		}
		label := a.Fn
		if a.Fn == "p" {
			label = "p" + strconv.FormatFloat(a.Pct, 'f', -1, 64)
		}
		fmt.Fprintf(&b, "%s(%q)", label, a.Field)
		n++
	}
	for _, f := range q.Fields {
		if n > 0 {
			b.WriteString(", ")
		}
		if f == "*" {
			b.WriteString("*")
		} else {
			fmt.Fprintf(&b, "%q", f)
		}
		n++
	}
	fmt.Fprintf(&b, " FROM %q", q.Measurement)
	keys := make([]string, 0, len(q.TagFilter))
	for k := range q.TagFilter {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var conds []string
	for _, k := range keys {
		kk := k
		if !bareKeySafe(k) {
			kk = strconv.Quote(k)
		}
		conds = append(conds, fmt.Sprintf("%s=%q", kk, q.TagFilter[k]))
	}
	if q.From != 0 {
		conds = append(conds, fmt.Sprintf("time >= %d", q.From))
	}
	if q.To != 0 {
		conds = append(conds, fmt.Sprintf("time <= %d", q.To))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if q.GroupBy > 0 {
		fmt.Fprintf(&b, " GROUP BY time(%s)", time.Duration(q.GroupBy))
	}
	return b.String()
}

// parseQueryCorpus returns the statements of FuzzParseQuery's checked-in
// corpus and of its seeds.
func parseQueryCorpus(t *testing.T) []string {
	stmts := append([]string(nil), parseQuerySeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseQuery", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzParseQuery corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		stmts = append(stmts, s)
	}
	return stmts
}

// TestQueryStringSameBytes: Query.String, the cache key and the text a
// client sends, renders every query to the bytes the fmt-built renderer
// did — the accepted statements of FuzzParseQuery's corpus, and
// generated queries whose names hold quotes, escapes, keywords, invalid
// UTF-8 and non-ASCII, with odd percentiles, bounds and windows.
func TestQueryStringSameBytes(t *testing.T) {
	check := func(q *Query, from string) {
		t.Helper()
		if got, want := q.String(), fmtQueryString(q); got != want {
			t.Fatalf("%s renders\n %q\nwant\n %q", from, got, want)
		}
	}
	parsed := 0
	for _, stmt := range parseQueryCorpus(t) {
		if q, err := ParseQuery(stmt); err == nil {
			check(q, strconv.Quote(stmt))
			parsed++
		}
	}
	if parsed < 10 {
		t.Fatalf("only %d corpus statements parse", parsed)
	}
	names := []string{"f", "_cpu0", "a b", `a"b`, `a\b`, "tab\there", "line\nbreak", "time", "GROUP",
		"Select", "ü", "日本", "\xff\xfe", "=", "", "*x", "emoji 🙂", "k'q"}
	fns := []string{"mean", "min", "max", "sum", "count", "p"}
	pcts := []float64{0, 50, 99, 99.9, 100, 33.333333333333336, 1e-7}
	bounds := []int64{0, 1, -5, 1e18, -1 << 63, 1<<63 - 1}
	windows := []int64{0, 1, 999, int64(time.Millisecond) * 250, int64(16 * time.Second), int64(90 * time.Minute), 1<<63 - 1}
	rng := rand.New(rand.NewSource(45))
	pick := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 5000; i++ {
		q := &Query{Measurement: pick(), From: bounds[rng.Intn(len(bounds))], To: bounds[rng.Intn(len(bounds))]}
		if rng.Intn(2) == 0 {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				q.Aggregates = append(q.Aggregates, Aggregate{Fn: fns[rng.Intn(len(fns))], Field: pick(), Pct: pcts[rng.Intn(len(pcts))]})
			}
			q.GroupBy = windows[rng.Intn(len(windows))]
		} else {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if rng.Intn(5) == 0 {
					q.Fields = append(q.Fields, "*")
				} else {
					q.Fields = append(q.Fields, pick())
				}
			}
		}
		if n := rng.Intn(12); n > 0 {
			q.TagFilter = map[string]string{} // past 8 keys the key scratch grows
			for ; n > 0; n-- {
				q.TagFilter[pick()] = pick()
			}
		}
		check(q, fmt.Sprintf("generated query %d", i))
	}
}

// BenchmarkQueryString renders a dash_cold-shaped range statement: two
// aggregates of one field under a tag, bounded, windowed.
func BenchmarkQueryString(b *testing.B) {
	q, err := ParseQuery(`SELECT mean("_cpu3"), p99("_cpu3") FROM "kernel_percpu_cpu_idle" WHERE host="skx" AND time >= 1700000000000000000 AND time <= 1700000600000000000 GROUP BY time(16s)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.String()
	}
}
