package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pmove/internal/introspect"
)

// BenchmarkQueryClasses is the aggregate and raw read path by statement
// class over a store shaped like a cold dashboard's: 4 measurements × 2
// tag values, each series 8 sealed blocks and a 1 500-row head of 8
// fields at a 1 ms tick, 1 % of rows repeating the previous timestamp.
// Each class cycles 64 seeded statements with the result cache skipped:
//
//	footer  whole blocks per window: folds from footers
//	window  whole range, windows narrower than a block: every block decodes
//	range   a misaligned range over one to three blocks
//	pctl    p50..p99 over whole-block windows or a two-to-three-block range
//	raw     two fields over the last 256..1 280 rows
//	head    windows inside the head
func BenchmarkQueryClasses(b *testing.B) {
	db, classes, _ := queryClassStore(b)
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecuteContext(ctx, QueryRequest{Query: c.queries[i%len(c.queries)], SkipCache: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPanelCycle is a generated dashboard's refresh against the
// result cache: 4 × cap distinct aggregate statements of the footer,
// window, range, pctl and head classes, over BenchmarkQueryClasses'
// store, cycled in a fixed order through a fresh cache after one pass
// that fills it. hits/op is the share of statements the cache answers;
// resident-B what the full cache holds (the live heap after collection
// with it full, less that with it empty), over cached-rows rows.
func BenchmarkPanelCycle(b *testing.B) {
	db, _, panels := queryClassStore(b)
	saved := db.qcache
	defer func() { db.qcache = saved }()
	db.qcache = newQueryCache(0)
	in := introspect.New()
	db.qcache.setIntrospection(in)
	ctx := context.Background()
	run := func(i int) {
		if _, err := db.ExecuteContext(ctx, QueryRequest{Query: panels[i%len(panels)]}); err != nil {
			b.Fatal(err)
		}
	}
	empty := liveHeap()
	for i := range panels {
		run(i)
	}
	resident, rows := liveHeap()-empty, 0
	for _, e := range db.qcache.slots {
		rows += len(e.res.Times)
	}
	hits0 := in.Metrics().Snapshot().CounterValue("query.cache.hits")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(in.Metrics().Snapshot().CounterValue("query.cache.hits")-hits0)/float64(b.N), "hits/op")
	b.ReportMetric(float64(resident), "resident-B")
	b.ReportMetric(float64(rows), "cached-rows")
}

// liveHeap is the heap in use after two collections: what live data holds.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

type queryClass struct {
	name    string
	queries []*Query
}

var queryClassOnce struct {
	sync.Once
	db      *DB
	classes []queryClass
	panels  []*Query
	err     error
}

// queryClassStore builds BenchmarkQueryClasses' store and statements,
// and BenchmarkPanelCycle's, once per process.
func queryClassStore(tb testing.TB) (*DB, []queryClass, []*Query) {
	tb.Helper()
	o := &queryClassOnce
	o.Do(func() { o.db, o.classes, o.panels, o.err = buildQueryClasses() })
	if o.err != nil {
		tb.Fatal(o.err)
	}
	return o.db, o.classes, o.panels
}

func buildQueryClasses() (*DB, []queryClass, []*Query, error) {
	const (
		nMeas, nFields = 4, 8
		headRows       = 1500
		rows           = 8*blockRows + headRows
		step           = int64(1e6)
		span           = blockRows * step
		base           = 1024 * span // aligned to every window below
		batch          = 256
	)
	tags := []string{"h0", "h1"}
	rng := rand.New(rand.NewSource(34))
	db := New()
	type series struct {
		vals [nFields]float64
		pts  []Point
	}
	var ss []*series
	for mi := 0; mi < nMeas; mi++ {
		for _, tag := range tags {
			s := &series{pts: make([]Point, batch)}
			for fi := range s.vals {
				s.vals[fi] = float64(1000 + 100*fi + rng.Intn(64))
			}
			for i := range s.pts {
				s.pts[i] = Point{Measurement: fmt.Sprintf("m%d", mi), Tags: map[string]string{"tag": tag},
					Fields: make(map[string]float64, nFields)}
			}
			ss = append(ss, s)
		}
	}
	for r0 := 0; r0 < rows; r0 += batch {
		for _, s := range ss {
			for i := range s.pts {
				r := int64(r0 + i)
				t := base + r*step
				if r > 0 && rng.Intn(100) == 0 {
					t -= step // a duplicate of the previous row's time
				}
				s.pts[i].Time = t
				for fi := range s.vals {
					s.vals[fi] = max(0, s.vals[fi]+float64(rng.Intn(17)-8)/8)
					s.pts[i].Fields[fmt.Sprintf("f%d", fi)] = s.vals[fi]
				}
			}
			if err := db.WriteBatchContext(context.Background(), s.pts); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	field := func() string { return fmt.Sprintf("f%d", rng.Intn(nFields)) }
	query := func(tagged bool) *Query {
		q := &Query{Measurement: fmt.Sprintf("m%d", rng.Intn(nMeas)), TagFilter: map[string]string{}}
		if tagged || rng.Intn(3) > 0 {
			q.TagFilter["tag"] = tags[rng.Intn(len(tags))]
		}
		return q
	}
	fold := func() Aggregate {
		return Aggregate{Fn: []string{"sum", "count", "mean", "min", "max"}[rng.Intn(5)], Field: field()}
	}
	// rangeOf is an inclusive range of n rows, its start a random row.
	rangeOf := func(n int64) (int64, int64) {
		from := base + int64(1+rng.Intn(int(rows-n)))*step
		return from, from + n*step
	}
	headStart := base + 8*span
	gens := []struct {
		name string
		make func() *Query
	}{
		{"footer", func() *Query {
			q := query(false)
			q.Aggregates = []Aggregate{fold()}
			q.GroupBy = []int64{0, span, 2 * span, 4 * span}[rng.Intn(4)]
			return q
		}},
		{"window", func() *Query {
			q := query(false)
			q.Aggregates = []Aggregate{fold()}
			q.GroupBy = int64(500+rng.Intn(3000)) * step
			return q
		}},
		{"range", func() *Query {
			q := query(false)
			q.Aggregates = []Aggregate{fold()}
			q.From, q.To = rangeOf(blockRows + int64(rng.Intn(2*blockRows)))
			q.GroupBy = int64(300+rng.Intn(1500)) * step
			return q
		}},
		{"pctl", func() *Query {
			q := query(false)
			q.Aggregates = []Aggregate{{Fn: "p", Field: field(), Pct: []float64{50, 90, 95, 99}[rng.Intn(4)]}}
			if rng.Intn(2) == 0 {
				q.GroupBy = []int64{0, 4 * span}[rng.Intn(2)]
			} else {
				q.From, q.To = rangeOf(2*blockRows + int64(rng.Intn(blockRows)))
			}
			return q
		}},
		{"raw", func() *Query {
			q := query(true)
			f1 := rng.Intn(nFields)
			q.Fields = []string{fmt.Sprintf("f%d", f1), fmt.Sprintf("f%d", (f1+1+rng.Intn(nFields-1))%nFields)}
			q.To = base + (rows-int64(rng.Intn(blockRows)))*step
			q.From = q.To - int64(256+rng.Intn(1024))*step
			return q
		}},
		{"head", func() *Query {
			q := query(false)
			q.Aggregates = []Aggregate{fold()}
			q.From = headStart + int64(rng.Intn(256))*step
			q.GroupBy = int64(50+rng.Intn(400)) * step
			return q
		}},
	}
	classes := make([]queryClass, len(gens))
	for i, g := range gens {
		classes[i].name = g.name
		for k := 0; k < 64; k++ {
			classes[i].queries = append(classes[i].queries, g.make())
		}
	}
	// The panel set draws after the classes, which it leaves as they were.
	var panels []*Query
	seen := map[string]bool{}
	for k := 0; len(panels) < 4*defaultQueryCacheCap; k++ {
		if g := gens[k%len(gens)]; g.name != "raw" {
			if q := g.make(); !seen[q.String()] {
				seen[q.String()] = true
				panels = append(panels, q)
			}
		}
	}
	return db, classes, panels, nil
}
