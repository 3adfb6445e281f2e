package tsdb

import (
	"strings"
	"testing"
)

// queriesEqual compares parsed queries structurally. Float comparison
// uses == (percentiles are finite by construction: aggFn bounds them
// to [0,100], rejecting NaN).
func queriesEqual(a, b *Query) bool {
	if a.Measurement != b.Measurement || a.From != b.From || a.To != b.To ||
		a.GroupBy != b.GroupBy ||
		len(a.Fields) != len(b.Fields) || len(a.Aggregates) != len(b.Aggregates) ||
		len(a.TagFilter) != len(b.TagFilter) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	for i := range a.Aggregates {
		if a.Aggregates[i] != b.Aggregates[i] {
			return false
		}
	}
	for k, v := range a.TagFilter {
		if bv, ok := b.TagFilter[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// parseQuerySeeds are FuzzParseQuery's seeds.
var parseQuerySeeds = []string{
	`SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle" WHERE tag="278e26c2"`,
	`SELECT * FROM "m"`,
	`SELECT mean("_cpu0") FROM "m" GROUP BY time(5s)`,
	`SELECT p99("f"), count("f") FROM "m" WHERE tag="x" AND time >= 5 AND time <= 99 GROUP BY time(250ms)`,
	`SELECT p99.9("f") FROM "m"`,
	`SELECT sum("f") FROM "m" GROUP BY time(300000000000)`,
	`select min("f"), max("f") from "m" where "time"="tagval"`,
	`SELECT "f" FROM "m" WHERE k='raw val' AND time = 7`,
	`SELECT "a\"b" FROM "m\\n"`,
	`SELECT count("f") FROM "m" WHERE "and"="x" AND "group"="y"`,
	`SELECT mean("f") FROM "m" WHERE time >= -5 GROUP BY time(1h30m)`,
	`SELECT "f" FROM "m" WHERE tag<"x"`,
	`SELECT FROM "m"`,
	`SELECT mean("f"), "g" FROM "m"`,
	`SELECT pNaN("f") FROM "m"`,
	``,
	"SELECT mean(v)\nFROM m WHERE k='a\nb' AND \"k\n2\"=\"x\"",
}

// FuzzParseQuery asserts the query parser's contract over arbitrary
// statements: never panic, and every accepted statement renders to a
// canonical form (Query.String — the query-cache key) that parses back
// to the same query, byte-stably. The canonical form must be a fixed
// point: parse → String → parse → String yields identical text, or the
// cache would key the same plan under different strings.
func FuzzParseQuery(f *testing.F) {
	for _, stmt := range parseQuerySeeds {
		f.Add(stmt)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		q, err := ParseQuery(stmt)
		if err != nil {
			return // rejection is a valid outcome; panics are not
		}
		canon := q.String()
		if ref := fmtQueryString(q); canon != ref {
			t.Fatalf("%q renders %q; the fmt-built renderer gave %q", stmt, canon, ref)
		}
		// The client sends this text as one wire line (QueryContext).
		if strings.Contains(canon, "\n") {
			t.Fatalf("canonical form %q of %q holds a line break", canon, stmt)
		}
		q2, err := ParseQuery(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, stmt, err)
		}
		if !queriesEqual(q, q2) {
			t.Fatalf("round trip changed the query:\n first: %+v\nsecond: %+v\n  stmt: %q\n canon: %q", q, q2, stmt, canon)
		}
		canon2 := q2.String()
		if canon2 != canon {
			t.Fatalf("canonical form unstable: %q then %q (stmt %q)", canon, canon2, stmt)
		}
		// Shape invariants every accepted query upholds.
		if len(q.Fields) > 0 && len(q.Aggregates) > 0 {
			t.Fatalf("accepted mixed raw/aggregate query %q: %+v", stmt, q)
		}
		if len(q.Fields) == 0 && len(q.Aggregates) == 0 {
			t.Fatalf("accepted empty field list %q: %+v", stmt, q)
		}
		if q.GroupBy > 0 && len(q.Aggregates) == 0 {
			t.Fatalf("accepted GROUP BY without aggregates %q: %+v", stmt, q)
		}
		if q.GroupBy < 0 {
			t.Fatalf("accepted negative GROUP BY %q: %+v", stmt, q)
		}
		for _, a := range q.Aggregates {
			switch a.Fn {
			case "mean", "min", "max", "sum", "count":
			case "p":
				if !(a.Pct >= 0 && a.Pct <= 100) {
					t.Fatalf("percentile out of range in %q: %+v", stmt, a)
				}
			default:
				t.Fatalf("unknown aggregate fn in %q: %+v", stmt, a)
			}
		}
	})
}
